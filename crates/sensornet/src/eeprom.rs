//! The node's external EEPROM (16 KiB, Table 1).
//!
//! PAVENET nodes buffer configuration (their uid-as-tool-ID binding) and
//! unreported detections here. The model enforces the real part's size.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::hw::EEPROM_BYTES;

/// A bounds-checked byte store the size of the real part.
///
/// The backing heap is allocated on first write: the serving pipeline
/// never writes the EEPROM, so a metro fleet's million nodes share the
/// one static zero page below instead of paying 16 KiB each (the
/// dominant per-home heap cost before this). An untouched device is
/// indistinguishable from a zero-filled one through every method,
/// including equality.
///
/// # Examples
///
/// ```
/// use coreda_sensornet::eeprom::Eeprom;
///
/// let mut rom = Eeprom::new();
/// rom.write(0x10, &[1, 2, 3])?;
/// assert_eq!(rom.read(0x10, 3)?, &[1, 2, 3]);
/// # Ok::<(), coreda_sensornet::eeprom::EepromError>(())
/// ```
#[derive(Debug, Clone, Eq, Serialize, Deserialize)]
pub struct Eeprom {
    /// `None` until the device is first written.
    data: Option<Box<[u8; EEPROM_BYTES]>>,
}

/// What every unwritten device reads as: one 16 KiB zero block in
/// rodata, shared by the whole fleet.
static ZEROS: [u8; EEPROM_BYTES] = [0; EEPROM_BYTES];

impl Default for Eeprom {
    fn default() -> Self {
        Self::new()
    }
}

/// Logical-content equality: an unwritten device equals a zero-filled
/// one (a deserialised eager-layout blob must match a fresh lazy one).
impl PartialEq for Eeprom {
    fn eq(&self, other: &Self) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eeprom {
    /// A zero-filled EEPROM of the hardware's capacity.
    #[must_use]
    pub fn new() -> Self {
        Eeprom { data: None }
    }

    /// Capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        EEPROM_BYTES
    }

    /// The full logical contents, materialised or not.
    fn bytes(&self) -> &[u8; EEPROM_BYTES] {
        self.data.as_deref().unwrap_or(&ZEROS)
    }

    /// Writes `bytes` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`EepromError`] if the write would run past the end.
    pub fn write(&mut self, addr: usize, bytes: &[u8]) -> Result<(), EepromError> {
        let end = addr.checked_add(bytes.len()).ok_or(EepromError {
            addr,
            len: bytes.len(),
            capacity: self.capacity(),
        })?;
        if end > EEPROM_BYTES {
            return Err(EepromError { addr, len: bytes.len(), capacity: self.capacity() });
        }
        let data = self.data.get_or_insert_with(|| {
            // Zeroed on the heap: a `[0; EEPROM_BYTES]` temporary would
            // pass through the stack.
            vec![0; EEPROM_BYTES].into_boxed_slice().try_into().expect("EEPROM_BYTES long")
        });
        data[addr..end].copy_from_slice(bytes);
        Ok(())
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`EepromError`] if the read would run past the end.
    pub fn read(&self, addr: usize, len: usize) -> Result<&[u8], EepromError> {
        let end = addr
            .checked_add(len)
            .ok_or(EepromError { addr, len, capacity: self.capacity() })?;
        if end > EEPROM_BYTES {
            return Err(EepromError { addr, len, capacity: self.capacity() });
        }
        Ok(&self.bytes()[addr..end])
    }
}

/// An out-of-bounds EEPROM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EepromError {
    /// Requested start address.
    pub addr: usize,
    /// Requested length.
    pub len: usize,
    /// Device capacity.
    pub capacity: usize,
}

impl fmt::Display for EepromError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "eeprom access [{}, {}) exceeds capacity {}",
            self.addr,
            self.addr + self.len,
            self.capacity
        )
    }
}

impl Error for EepromError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_matches_table1() {
        assert_eq!(Eeprom::new().capacity(), 16 * 1024);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut rom = Eeprom::new();
        rom.write(100, b"coreda").unwrap();
        assert_eq!(rom.read(100, 6).unwrap(), b"coreda");
    }

    #[test]
    fn boundary_write_is_allowed() {
        let mut rom = Eeprom::new();
        let cap = rom.capacity();
        assert!(rom.write(cap - 4, &[9; 4]).is_ok());
        assert_eq!(rom.read(cap - 4, 4).unwrap(), &[9; 4]);
    }

    #[test]
    fn overflow_write_rejected() {
        let mut rom = Eeprom::new();
        let cap = rom.capacity();
        let err = rom.write(cap - 2, &[0; 4]).unwrap_err();
        assert_eq!(err.capacity, cap);
        assert!(err.to_string().contains("exceeds capacity"));
    }

    #[test]
    fn overflow_read_rejected() {
        let rom = Eeprom::new();
        assert!(rom.read(rom.capacity(), 1).is_err());
        assert!(rom.read(usize::MAX, 2).is_err());
    }

    #[test]
    fn fresh_eeprom_is_zeroed() {
        let rom = Eeprom::new();
        assert!(rom.read(0, 64).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn unwritten_equals_explicitly_zero_filled() {
        let lazy = Eeprom::new();
        let mut eager = Eeprom::new();
        eager.write(0, &[0u8; EEPROM_BYTES]).unwrap();
        assert_eq!(lazy, eager, "materialisation must be unobservable");
        assert_eq!(lazy.read(0, EEPROM_BYTES), eager.read(0, EEPROM_BYTES));

        let mut written = Eeprom::new();
        written.write(7, &[1]).unwrap();
        assert_ne!(lazy, written);
    }
}
