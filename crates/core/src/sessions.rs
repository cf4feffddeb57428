//! Activity-session recognition across a whole home.
//!
//! A deployed base station hears tool reports from *every* instrumented
//! activity. Before any per-activity pipeline can run, the server must
//! decide which activity a report belongs to and when a session starts
//! and ends. [`SessionTracker`] does that from uids alone:
//!
//! - the first report opens a session for the owning activity;
//! - reports from another activity's tools are flagged as
//!   [`SessionEvent::CrossActivityUse`] — a realistic dementia confusion
//!   (fetching the toothbrush mid-tea-making) that a caregiver wants to
//!   know about;
//! - a sustained run of foreign reports means the user actually moved on:
//!   the tracker ends the session (abandoned) and opens the new one;
//! - a session closes as *completed* if its terminal tool was seen, or as
//!   *abandoned* after a long silence otherwise.
//!
//! Activity names are interned into a per-tracker [`NameTable`], so a
//! [`SessionEvent`] is a small `Copy` value carrying [`NameId`]s — no
//! `String` clones on the per-report hot path. Resolve ids back to names
//! only at render time, via [`SessionTracker::activity_name`] or
//! [`SessionTracker::render_event`].

use std::sync::Arc;

use coreda_adl::activity::AdlSpec;
use coreda_adl::intern::{NameId, NameTable};
use coreda_adl::tool::ToolId;
use coreda_des::time::{SimDuration, SimTime};
use coreda_sensornet::node::NodeId;

/// Events recognised by the tracker. `Copy`: activity names are carried
/// as interned [`NameId`]s into the issuing tracker's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEvent {
    /// A new activity session opened.
    Started {
        /// Activity name.
        activity: NameId,
        /// When.
        at: SimTime,
    },
    /// A session closed.
    Ended {
        /// Activity name.
        activity: NameId,
        /// When.
        at: SimTime,
        /// Whether its terminal tool had been used.
        completed: bool,
    },
    /// A tool of *another* activity was used during an open session.
    CrossActivityUse {
        /// The activity currently in session.
        active: NameId,
        /// The foreign activity the tool belongs to.
        foreign: NameId,
        /// The tool used.
        tool: ToolId,
        /// When.
        at: SimTime,
    },
}

/// Maximum events a single report can produce (flag + end + start).
const MAX_EVENTS_PER_REPORT: usize = 3;

/// The events recognised from one report, returned inline — no heap
/// allocation per report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionEvents {
    events: [Option<SessionEvent>; MAX_EVENTS_PER_REPORT],
    len: u8,
}

impl SessionEvents {
    fn push(&mut self, ev: SessionEvent) {
        self.events[self.len as usize] = Some(ev);
        self.len += 1;
    }

    /// Number of events recognised.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the report produced no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the events in recognition order.
    pub fn iter(&self) -> impl Iterator<Item = &SessionEvent> {
        self.events[..self.len as usize].iter().map(|e| e.as_ref().expect("filled up to len"))
    }
}

impl std::ops::Index<usize> for SessionEvents {
    type Output = SessionEvent;

    fn index(&self, i: usize) -> &SessionEvent {
        assert!(i < self.len as usize, "event index {i} out of bounds (len {})", self.len);
        self.events[i].as_ref().expect("filled up to len")
    }
}

impl IntoIterator for SessionEvents {
    type Item = SessionEvent;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<SessionEvent>, 3>>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter().flatten()
    }
}

impl<'a> IntoIterator for &'a SessionEvents {
    type Item = &'a SessionEvent;
    type IntoIter = std::iter::Flatten<std::slice::Iter<'a, Option<SessionEvent>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter().flatten()
    }
}

#[derive(Debug, Clone)]
struct ActivityInfo {
    name: NameId,
    tools: Vec<ToolId>,
    terminal_tool: ToolId,
}

/// An open session: the tracker's live state, and what
/// [`SessionTracker::export_active`] captures. Activity metadata and
/// interned names are rebuilt from the specs (in the same order, so the
/// same [`NameId`]s come out) and are not part of the snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveSessionState {
    /// Index of the activity in session (spec order).
    pub activity_idx: usize,
    /// Last report instant.
    pub last_report: SimTime,
    /// Whether the terminal tool has been seen.
    pub saw_terminal: bool,
    /// In-progress foreign run: `(foreign activity index, run length)`.
    pub foreign_run: Option<(usize, u32)>,
}

/// Recognises activity sessions from the home-wide report stream.
///
/// # Examples
///
/// ```
/// use coreda_adl::activity::catalog;
/// use coreda_core::sessions::{SessionEvent, SessionTracker};
/// use coreda_des::time::{SimDuration, SimTime};
/// use coreda_sensornet::node::NodeId;
///
/// let mut tracker = SessionTracker::new(
///     &[catalog::tea_making(), catalog::tooth_brushing()],
///     SimDuration::from_secs(120),
/// );
/// let events = tracker.on_report(NodeId::new(catalog::TEA_BOX), SimTime::from_secs(1));
/// assert!(matches!(
///     events[0],
///     SessionEvent::Started { activity, .. } if tracker.activity_name(activity) == "Tea-making"
/// ));
/// ```
#[derive(Debug, Clone)]
pub struct SessionTracker {
    /// Immutable after construction and shared: cloning a tracker (one
    /// per home in a metro fleet) costs two `Arc` bumps, not a rebuild of
    /// the activity metadata and interner.
    activities: Arc<Vec<ActivityInfo>>,
    names: Arc<NameTable>,
    active: Option<ActiveSessionState>,
    /// Silence after which an open session is closed.
    idle_close: SimDuration,
}

impl SessionTracker {
    /// Number of consecutive foreign reports treated as a switch.
    pub const DEFAULT_SWITCH_THRESHOLD: u32 = 3;

    /// Creates a tracker over `specs`.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty or two activities share a tool id.
    #[must_use]
    pub fn new(specs: &[AdlSpec], idle_close: SimDuration) -> Self {
        assert!(!specs.is_empty(), "tracker needs at least one activity");
        let mut seen = std::collections::HashSet::new();
        let mut names = NameTable::new();
        let activities = specs
            .iter()
            .map(|spec| {
                for tool in spec.tools() {
                    assert!(
                        seen.insert(tool.id()),
                        "tool {id} appears in two activities",
                        id = tool.id()
                    );
                }
                ActivityInfo {
                    name: names.intern(spec.name()),
                    tools: spec.tools().iter().map(coreda_adl::tool::Tool::id).collect(),
                    terminal_tool: spec
                        .terminal_step()
                        .tool()
                        .expect("terminal steps use a tool"),
                }
            })
            .collect();
        SessionTracker {
            activities: Arc::new(activities),
            names: Arc::new(names),
            active: None,
            idle_close,
        }
    }

    /// The activity currently in session, if any.
    #[must_use]
    pub fn active_activity(&self) -> Option<&str> {
        self.active.as_ref().map(|a| self.names.resolve(self.activities[a.activity_idx].name))
    }

    /// Resolves an interned activity name id issued by this tracker.
    #[must_use]
    pub fn activity_name(&self, id: NameId) -> &str {
        self.names.resolve(id)
    }

    /// The id this tracker interned `name` under, if it tracks it.
    #[must_use]
    pub fn activity_id(&self, name: &str) -> Option<NameId> {
        self.names.get(name)
    }

    /// Renders an event with its names resolved, for logs and caregiver
    /// reports.
    #[must_use]
    pub fn render_event(&self, ev: &SessionEvent) -> String {
        match *ev {
            SessionEvent::Started { activity, at } => {
                format!("[{at}] session started: {}", self.names.resolve(activity))
            }
            SessionEvent::Ended { activity, at, completed } => {
                let how = if completed { "completed" } else { "abandoned" };
                format!("[{at}] session ended ({how}): {}", self.names.resolve(activity))
            }
            SessionEvent::CrossActivityUse { active, foreign, tool, at } => format!(
                "[{at}] cross-activity use: tool {tool} of {} during {}",
                self.names.resolve(foreign),
                self.names.resolve(active)
            ),
        }
    }

    /// When the open session will be closed by silence, if a session is
    /// open: the instant [`SessionTracker::on_tick`] first fires.
    #[must_use]
    pub fn idle_deadline(&self) -> Option<SimTime> {
        self.active.as_ref().map(|a| a.last_report + self.idle_close)
    }

    fn owner_of(&self, tool: ToolId) -> Option<usize> {
        self.activities.iter().position(|a| a.tools.contains(&tool))
    }

    /// Feeds one accepted tool report; returns the recognised events, in
    /// order. Reports from unknown tools are ignored.
    pub fn on_report(&mut self, node: NodeId, at: SimTime) -> SessionEvents {
        let tool = ToolId::new(node.raw());
        let mut events = SessionEvents::default();
        let Some(owner) = self.owner_of(tool) else {
            return events;
        };
        match self.active.as_mut() {
            None => {
                self.active = Some(ActiveSessionState {
                    activity_idx: owner,
                    last_report: at,
                    saw_terminal: tool == self.activities[owner].terminal_tool,
                    foreign_run: None,
                });
                events.push(SessionEvent::Started { activity: self.activities[owner].name, at });
            }
            Some(active) if active.activity_idx == owner => {
                active.last_report = at;
                active.foreign_run = None;
                if tool == self.activities[owner].terminal_tool {
                    active.saw_terminal = true;
                }
            }
            Some(active) => {
                active.last_report = at;
                let run = match active.foreign_run {
                    Some((who, n)) if who == owner => n + 1,
                    _ => 1,
                };
                active.foreign_run = Some((owner, run));
                events.push(SessionEvent::CrossActivityUse {
                    active: self.activities[active.activity_idx].name,
                    foreign: self.activities[owner].name,
                    tool,
                    at,
                });
                if run >= Self::DEFAULT_SWITCH_THRESHOLD {
                    // The user really did move on.
                    let old = active.activity_idx;
                    let completed = active.saw_terminal;
                    events.push(SessionEvent::Ended {
                        activity: self.activities[old].name,
                        at,
                        completed,
                    });
                    self.active = Some(ActiveSessionState {
                        activity_idx: owner,
                        last_report: at,
                        saw_terminal: tool == self.activities[owner].terminal_tool,
                        foreign_run: None,
                    });
                    events.push(SessionEvent::Started {
                        activity: self.activities[owner].name,
                        at,
                    });
                }
            }
        }
        events
    }

    /// The open session, if any (checkpointing).
    #[must_use]
    pub fn export_active(&self) -> Option<ActiveSessionState> {
        self.active
    }

    /// Reopens the session captured by [`SessionTracker::export_active`]
    /// on a tracker built from the same specs. The caller vets its
    /// activity indices; a metro resume does so in its shape check.
    pub fn restore_active(&mut self, state: Option<ActiveSessionState>) {
        self.active = state;
    }

    /// Periodic check: closes the open session after `idle_close` of
    /// silence. Returns the end event if one fired.
    pub fn on_tick(&mut self, now: SimTime) -> Option<SessionEvent> {
        let active = self.active.as_ref()?;
        if now.saturating_duration_since(active.last_report) < self.idle_close {
            return None;
        }
        let ev = SessionEvent::Ended {
            activity: self.activities[active.activity_idx].name,
            at: now,
            completed: active.saw_terminal,
        };
        self.active = None;
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coreda_adl::activity::catalog;

    fn tracker() -> SessionTracker {
        SessionTracker::new(
            &[catalog::tea_making(), catalog::tooth_brushing()],
            SimDuration::from_secs(120),
        )
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn first_report_starts_the_owning_session() {
        let mut tr = tracker();
        let ev = tr.on_report(NodeId::new(catalog::BRUSH), t(5));
        let brushing = tr.activity_id("Tooth-brushing").unwrap();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0], SessionEvent::Started { activity: brushing, at: t(5) });
        assert_eq!(tr.active_activity(), Some("Tooth-brushing"));
    }

    #[test]
    fn same_activity_reports_extend_the_session() {
        let mut tr = tracker();
        tr.on_report(NodeId::new(catalog::TEA_BOX), t(1));
        assert!(tr.on_report(NodeId::new(catalog::POT), t(8)).is_empty());
        assert!(tr.on_report(NodeId::new(catalog::KETTLE), t(14)).is_empty());
        assert_eq!(tr.active_activity(), Some("Tea-making"));
    }

    #[test]
    fn completed_session_closes_after_silence() {
        let mut tr = tracker();
        for (tool, at) in [
            (catalog::TEA_BOX, 1),
            (catalog::POT, 8),
            (catalog::KETTLE, 14),
            (catalog::TEA_CUP, 20),
        ] {
            tr.on_report(NodeId::new(tool), t(at));
        }
        assert!(tr.on_tick(t(60)).is_none(), "not silent long enough yet");
        let ev = tr.on_tick(t(200)).unwrap();
        let tea = tr.activity_id("Tea-making").unwrap();
        assert_eq!(ev, SessionEvent::Ended { activity: tea, at: t(200), completed: true });
        assert_eq!(tr.active_activity(), None);
    }

    #[test]
    fn abandoned_session_closes_uncompleted() {
        let mut tr = tracker();
        tr.on_report(NodeId::new(catalog::TEA_BOX), t(1));
        let ev = tr.on_tick(t(500)).unwrap();
        assert!(matches!(ev, SessionEvent::Ended { completed: false, .. }));
    }

    #[test]
    fn idle_deadline_tracks_last_report() {
        let mut tr = tracker();
        assert_eq!(tr.idle_deadline(), None);
        tr.on_report(NodeId::new(catalog::TEA_BOX), t(1));
        assert_eq!(tr.idle_deadline(), Some(t(121)));
        tr.on_report(NodeId::new(catalog::POT), t(30));
        assert_eq!(tr.idle_deadline(), Some(t(150)));
        // The deadline is exactly when on_tick first closes the session.
        assert!(tr.on_tick(t(149)).is_none());
        assert!(tr.on_tick(t(150)).is_some());
        assert_eq!(tr.idle_deadline(), None);
    }

    #[test]
    fn single_foreign_report_is_flagged_not_switched() {
        let mut tr = tracker();
        tr.on_report(NodeId::new(catalog::TEA_BOX), t(1));
        // Mid-tea, the user picks up the toothbrush once — confusion.
        let ev = tr.on_report(NodeId::new(catalog::BRUSH), t(10));
        let tea = tr.activity_id("Tea-making").unwrap();
        let brushing = tr.activity_id("Tooth-brushing").unwrap();
        assert_eq!(ev.len(), 1);
        assert!(matches!(
            ev[0],
            SessionEvent::CrossActivityUse { active, foreign, tool, .. }
                if active == tea && foreign == brushing && tool == ToolId::new(catalog::BRUSH)
        ));
        assert_eq!(tr.active_activity(), Some("Tea-making"));
        // Returning to tea clears the foreign run.
        tr.on_report(NodeId::new(catalog::POT), t(15));
        let ev = tr.on_report(NodeId::new(catalog::BRUSH), t(20));
        assert_eq!(ev.len(), 1, "run counter restarted");
    }

    #[test]
    fn sustained_foreign_run_switches_sessions() {
        let mut tr = tracker();
        tr.on_report(NodeId::new(catalog::TEA_BOX), t(1));
        tr.on_report(NodeId::new(catalog::PASTE_TUBE), t(10));
        tr.on_report(NodeId::new(catalog::BRUSH), t(14));
        let ev = tr.on_report(NodeId::new(catalog::BRUSH), t(18));
        let tea = tr.activity_id("Tea-making").unwrap();
        let brushing = tr.activity_id("Tooth-brushing").unwrap();
        // Third consecutive foreign report: flag + end(abandoned) + start.
        assert_eq!(ev.len(), 3, "{ev:#?}");
        assert!(matches!(ev[0], SessionEvent::CrossActivityUse { .. }));
        assert!(matches!(
            ev[1],
            SessionEvent::Ended { activity, completed: false, .. } if activity == tea
        ));
        assert!(matches!(
            ev[2],
            SessionEvent::Started { activity, .. } if activity == brushing
        ));
        assert_eq!(tr.active_activity(), Some("Tooth-brushing"));
    }

    #[test]
    fn unknown_tools_are_ignored() {
        let mut tr = tracker();
        assert!(tr.on_report(NodeId::new(99), t(1)).is_empty());
        assert_eq!(tr.active_activity(), None);
    }

    #[test]
    fn back_to_back_sessions() {
        let mut tr = tracker();
        tr.on_report(NodeId::new(catalog::TEA_BOX), t(1));
        tr.on_report(NodeId::new(catalog::TEA_CUP), t(20));
        tr.on_tick(t(300)).unwrap();
        let ev = tr.on_report(NodeId::new(catalog::PASTE_TUBE), t(400));
        let brushing = tr.activity_id("Tooth-brushing").unwrap();
        assert!(matches!(
            ev[0],
            SessionEvent::Started { activity, .. } if activity == brushing
        ));
    }

    #[test]
    fn events_iterate_and_render() {
        let mut tr = tracker();
        tr.on_report(NodeId::new(catalog::TEA_BOX), t(1));
        tr.on_report(NodeId::new(catalog::PASTE_TUBE), t(10));
        tr.on_report(NodeId::new(catalog::BRUSH), t(14));
        let ev = tr.on_report(NodeId::new(catalog::BRUSH), t(18));
        assert_eq!(ev.iter().count(), 3);
        assert_eq!((&ev).into_iter().count(), 3);
        assert_eq!(ev.into_iter().count(), 3);
        let rendered: Vec<String> = ev.iter().map(|e| tr.render_event(e)).collect();
        assert!(rendered[0].contains("cross-activity use"));
        assert!(rendered[1].contains("session ended (abandoned): Tea-making"));
        assert!(rendered[2].contains("session started: Tooth-brushing"));
    }

    #[test]
    #[should_panic(expected = "appears in two activities")]
    fn overlapping_tools_rejected() {
        let tea = catalog::tea_making();
        let _ = SessionTracker::new(&[tea.clone(), tea], SimDuration::from_secs(60));
    }
}
