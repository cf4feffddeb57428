//! The over-the-air packet format.
//!
//! PAVENET nodes report tool usage to the base station ("When a tool is
//! used, its ID will be sent to the server"), and the reminding subsystem
//! sends LED blink commands the other way. This module defines the wire
//! format: a fixed header (magic, source, sequence number, timestamp,
//! payload tag) followed by a payload and a CRC-16/CCITT trailer.

use std::error::Error;
use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

use crate::led::{BlinkPattern, LedColor};
use crate::node::NodeId;

/// First byte of every frame.
pub const MAGIC: u8 = 0xCD;

/// Maximum encoded frame length in bytes (fits comfortably in a CC1000
/// frame).
pub const MAX_FRAME_LEN: usize = 64;

/// Header bytes before the payload: magic, source, sequence number,
/// timestamp and payload tag.
const HEADER_LEN: usize = 1 + 2 + 2 + 8 + 1;

/// Trailer bytes after the payload: the CRC-16.
const CRC_LEN: usize = 2;

/// CRC-16/CCITT-FALSE over `data` (poly 0x1021, init 0xFFFF).
///
/// Slicing-by-8: eight bytes per step through `CRC16_TABLES`, the
/// tail byte by byte. Every frame, checkpoint, delta and WAL codec runs
/// its bytes through here.
#[must_use]
pub fn crc16(data: &[u8]) -> u16 {
    let t = &CRC16_TABLES;
    let mut crc: u16 = 0xFFFF;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        // The register folds into the first two bytes; each byte then
        // contributes its table entry for the zero bytes that follow it.
        let [hi, lo] = crc.to_be_bytes();
        crc = t[7][usize::from(c[0] ^ hi)]
            ^ t[6][usize::from(c[1] ^ lo)]
            ^ t[5][usize::from(c[2])]
            ^ t[4][usize::from(c[3])]
            ^ t[3][usize::from(c[4])]
            ^ t[2][usize::from(c[5])]
            ^ t[1][usize::from(c[6])]
            ^ t[0][usize::from(c[7])];
    }
    for &byte in chunks.remainder() {
        crc = (crc << 8) ^ t[0][usize::from(crc.to_be_bytes()[0] ^ byte)];
    }
    crc
}

/// `CRC16_TABLES[k][b]`: the CRC-16/CCITT register contribution of byte
/// `b` followed by `k` zero bytes.
static CRC16_TABLES: [[u16; 256]; 8] = crc16_tables();

const fn crc16_tables() -> [[u16; 256]; 8] {
    let mut t = [[0u16; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = (b as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 { (crc << 1) ^ 0x1021 } else { crc << 1 };
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev << 8) ^ t[0][(prev >> 8) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Payload {
    /// "This tool is being used" — the sensing report driving CoReDA.
    /// `activation_milli` is the peak activation of the triggering window,
    /// in thousandths of the sensor's activation unit.
    ToolUse {
        /// Peak activation (milli-units) of the window that triggered.
        activation_milli: u16,
    },
    /// Blink an LED (reminding subsystem → node).
    Led {
        /// The blink pattern to run.
        pattern: BlinkPattern,
    },
    /// Link-layer acknowledgement of the frame with the given sequence.
    Ack {
        /// Sequence number being acknowledged.
        acked_seq: u16,
    },
    /// Periodic liveness beacon.
    Heartbeat,
}

impl Payload {
    const TAG_TOOL_USE: u8 = 1;
    const TAG_LED: u8 = 2;
    const TAG_ACK: u8 = 3;
    const TAG_HEARTBEAT: u8 = 4;

    fn tag(&self) -> u8 {
        match self {
            Payload::ToolUse { .. } => Self::TAG_TOOL_USE,
            Payload::Led { .. } => Self::TAG_LED,
            Payload::Ack { .. } => Self::TAG_ACK,
            Payload::Heartbeat => Self::TAG_HEARTBEAT,
        }
    }

    /// Encoded payload bytes, after the tag.
    fn len(&self) -> usize {
        match self {
            Payload::ToolUse { .. } | Payload::Ack { .. } => 2,
            Payload::Led { .. } => 4,
            Payload::Heartbeat => 0,
        }
    }
}

/// A frame on the wire.
///
/// # Examples
///
/// ```
/// use coreda_sensornet::node::NodeId;
/// use coreda_sensornet::packet::{Packet, Payload};
///
/// let p = Packet::new(NodeId::new(5), 42, 13_000, Payload::ToolUse { activation_milli: 450 });
/// let bytes = p.encode();
/// assert_eq!(Packet::decode(&bytes).unwrap(), p);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Packet {
    /// Sending node.
    pub src: NodeId,
    /// Per-node sequence number (wraps).
    pub seq: u16,
    /// Sender's clock at transmission, milliseconds.
    pub timestamp_ms: u64,
    /// The payload.
    pub payload: Payload,
}

impl Packet {
    /// Creates a packet.
    #[must_use]
    pub fn new(src: NodeId, seq: u16, timestamp_ms: u64, payload: Payload) -> Self {
        Packet { src, seq, timestamp_ms, payload }
    }

    /// Encodes to wire bytes (header + payload + CRC).
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(MAX_FRAME_LEN);
        buf.put_u8(MAGIC);
        buf.put_u16(self.src.raw());
        buf.put_u16(self.seq);
        buf.put_u64(self.timestamp_ms);
        buf.put_u8(self.payload.tag());
        match self.payload {
            Payload::ToolUse { activation_milli } => buf.put_u16(activation_milli),
            Payload::Led { pattern } => {
                buf.put_u8(match pattern.color {
                    LedColor::Green => 0,
                    LedColor::Red => 1,
                });
                buf.put_u8(pattern.blinks);
                buf.put_u16(u16::try_from(pattern.period_ms).unwrap_or(u16::MAX));
            }
            Payload::Ack { acked_seq } => buf.put_u16(acked_seq),
            Payload::Heartbeat => {}
        }
        let crc = crc16(&buf);
        buf.put_u16(crc);
        buf.freeze()
    }

    /// Decodes wire bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`PacketError`] when the frame is truncated, has a bad
    /// magic byte, an unknown payload tag, or a CRC mismatch.
    pub fn decode(frame: &[u8]) -> Result<Self, PacketError> {
        if frame.len() < HEADER_LEN + CRC_LEN {
            return Err(PacketError::Truncated { len: frame.len() });
        }
        let (body, trailer) = frame.split_at(frame.len() - CRC_LEN);
        let expected = u16::from_be_bytes([trailer[0], trailer[1]]);
        let actual = crc16(body);
        if expected != actual {
            return Err(PacketError::BadCrc { expected, actual });
        }
        let mut buf = body;
        let magic = buf.get_u8();
        if magic != MAGIC {
            return Err(PacketError::BadMagic(magic));
        }
        let src = NodeId::new(buf.get_u16());
        let seq = buf.get_u16();
        let timestamp_ms = buf.get_u64();
        let tag = buf.get_u8();
        let payload = match tag {
            Payload::TAG_TOOL_USE => {
                if buf.remaining() < 2 {
                    return Err(PacketError::Truncated { len: frame.len() });
                }
                Payload::ToolUse { activation_milli: buf.get_u16() }
            }
            Payload::TAG_LED => {
                if buf.remaining() < 4 {
                    return Err(PacketError::Truncated { len: frame.len() });
                }
                let color = match buf.get_u8() {
                    0 => LedColor::Green,
                    1 => LedColor::Red,
                    other => return Err(PacketError::BadField { field: "led color", value: other }),
                };
                let blinks = buf.get_u8();
                let period_ms = u64::from(buf.get_u16());
                Payload::Led { pattern: BlinkPattern { color, blinks, period_ms } }
            }
            Payload::TAG_ACK => {
                if buf.remaining() < 2 {
                    return Err(PacketError::Truncated { len: frame.len() });
                }
                Payload::Ack { acked_seq: buf.get_u16() }
            }
            Payload::TAG_HEARTBEAT => Payload::Heartbeat,
            other => return Err(PacketError::UnknownTag(other)),
        };
        if buf.has_remaining() {
            return Err(PacketError::TrailingBytes { extra: buf.remaining() });
        }
        Ok(Packet { src, seq, timestamp_ms, payload })
    }

    /// The encoded length in bytes: header, payload and CRC, computed
    /// without encoding the frame (every transmission's energy charge
    /// asks for it).
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + self.payload.len() + CRC_LEN
    }
}

/// Decoding failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketError {
    /// The frame is shorter than a minimal valid packet (or its payload is
    /// cut short).
    Truncated {
        /// Observed frame length.
        len: usize,
    },
    /// First byte is not [`MAGIC`].
    BadMagic(u8),
    /// CRC mismatch (corruption).
    BadCrc {
        /// CRC carried by the frame.
        expected: u16,
        /// CRC computed over the body.
        actual: u16,
    },
    /// Unknown payload tag.
    UnknownTag(u8),
    /// A payload field holds an invalid value.
    BadField {
        /// Name of the offending field.
        field: &'static str,
        /// The raw value found.
        value: u8,
    },
    /// Extra bytes after a complete payload.
    TrailingBytes {
        /// Number of unread bytes.
        extra: usize,
    },
}

impl fmt::Display for PacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketError::Truncated { len } => write!(f, "frame truncated at {len} bytes"),
            PacketError::BadMagic(b) => write!(f, "bad magic byte {b:#04x}"),
            PacketError::BadCrc { expected, actual } => {
                write!(f, "crc mismatch: frame says {expected:#06x}, computed {actual:#06x}")
            }
            PacketError::UnknownTag(t) => write!(f, "unknown payload tag {t}"),
            PacketError::BadField { field, value } => {
                write!(f, "invalid value {value} for field {field}")
            }
            PacketError::TrailingBytes { extra } => {
                write!(f, "{extra} unexpected trailing bytes")
            }
        }
    }
}

impl Error for PacketError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_packets() -> Vec<Packet> {
        vec![
            Packet::new(NodeId::new(1), 0, 0, Payload::Heartbeat),
            Packet::new(NodeId::new(2), 7, 13_000, Payload::ToolUse { activation_milli: 450 }),
            Packet::new(NodeId::new(3), u16::MAX, u64::MAX, Payload::Ack { acked_seq: 9 }),
            Packet::new(
                NodeId::new(4),
                100,
                71_000,
                Payload::Led {
                    pattern: BlinkPattern { color: LedColor::Red, blinks: 6, period_ms: 250 },
                },
            ),
        ]
    }

    #[test]
    fn roundtrip_all_payloads() {
        for p in sample_packets() {
            let bytes = p.encode();
            assert_eq!(Packet::decode(&bytes).unwrap(), p, "roundtrip failed for {p:?}");
        }
    }

    #[test]
    fn frames_fit_radio_mtu() {
        for p in sample_packets() {
            assert!(p.encoded_len() <= MAX_FRAME_LEN);
        }
    }

    /// The computed length is the encoding's, for every payload kind.
    #[test]
    fn encoded_len_matches_the_encoding() {
        let packets = sample_packets();
        let tags: std::collections::BTreeSet<u8> =
            packets.iter().map(|p| p.payload.tag()).collect();
        assert_eq!(tags.len(), 4, "the samples must cover all four payload kinds");
        for p in packets {
            assert_eq!(p.encoded_len(), p.encode().len(), "{p:?}");
        }
    }

    /// The bitwise CRC-16/CCITT-FALSE loop, kept as the reference the
    /// sliced [`crc16`] must match.
    fn crc16_bitwise(data: &[u8]) -> u16 {
        let mut crc: u16 = 0xFFFF;
        for &byte in data {
            crc ^= u16::from(byte) << 8;
            for _ in 0..8 {
                crc = if crc & 0x8000 != 0 { (crc << 1) ^ 0x1021 } else { crc << 1 };
            }
        }
        crc
    }

    #[test]
    fn crc16_known_vector() {
        // CRC-16/CCITT-FALSE("123456789") = 0x29B1.
        assert_eq!(crc16(b"123456789"), 0x29B1);
        assert_eq!(crc16_bitwise(b"123456789"), 0x29B1);
        assert_eq!(crc16(b""), 0xFFFF);
        // Every tail length after every whole number of 8-byte steps.
        let data: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37) ^ 0xA5).collect();
        for n in 0..=data.len() {
            assert_eq!(crc16(&data[..n]), crc16_bitwise(&data[..n]), "length {n}");
        }
    }

    proptest::proptest! {
        /// Slicing-by-8 is the bitwise CRC at every length and alignment
        /// of the 8-byte stride.
        #[test]
        fn sliced_crc16_matches_the_bitwise_loop(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4096),
        ) {
            proptest::prop_assert_eq!(crc16(&data), crc16_bitwise(&data));
        }
    }

    #[test]
    fn corruption_is_detected() {
        let p = Packet::new(NodeId::new(9), 3, 42, Payload::ToolUse { activation_milli: 10 });
        let mut bytes = p.encode().to_vec();
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x40;
            assert!(
                Packet::decode(&corrupted).is_err(),
                "flipping byte {i} went undetected"
            );
        }
        // Untouched frame still decodes (guard against accidental mutation
        // of the original in the loop).
        bytes[0] = MAGIC;
        assert!(Packet::decode(&bytes).is_ok());
    }

    #[test]
    fn truncated_frames_rejected() {
        let p = Packet::new(NodeId::new(9), 3, 42, Payload::Heartbeat);
        let bytes = p.encode();
        for n in 0..bytes.len() {
            assert!(matches!(
                Packet::decode(&bytes[..n]),
                Err(PacketError::Truncated { .. } | PacketError::BadCrc { .. })
            ));
        }
    }

    #[test]
    fn bad_magic_reported() {
        let p = Packet::new(NodeId::new(9), 3, 42, Payload::Heartbeat);
        let mut bytes = p.encode().to_vec();
        bytes[0] = 0x00;
        // Re-stamp the CRC so only the magic is wrong.
        let body_len = bytes.len() - 2;
        let crc = crc16(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(Packet::decode(&bytes), Err(PacketError::BadMagic(0)));
    }

    #[test]
    fn unknown_tag_reported() {
        let p = Packet::new(NodeId::new(9), 3, 42, Payload::Heartbeat);
        let mut bytes = p.encode().to_vec();
        bytes[13] = 99; // payload tag offset: 1 + 2 + 2 + 8
        let body_len = bytes.len() - 2;
        let crc = crc16(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(Packet::decode(&bytes), Err(PacketError::UnknownTag(99)));
    }

    #[test]
    fn error_messages_are_informative() {
        assert_eq!(
            PacketError::Truncated { len: 3 }.to_string(),
            "frame truncated at 3 bytes"
        );
        assert!(PacketError::BadMagic(0xAB).to_string().contains("0xab"));
    }
}
