//! The reminding subsystem (paper §2.3).
//!
//! Receives prompts from the planning subsystem — the tool that should be
//! used next and a reminding level — and renders them as the three
//! delivery methods of the prototype: a text message and a tool picture on
//! the display, and LED blinking on the tools themselves. Two levels
//! exist: *minimal* ("use tea-cup", few blinks) and *specific*
//! ("Mr. Kim, use the black tea-box in front of you.", more blinks).

use std::fmt;

use coreda_adl::activity::AdlSpec;
use coreda_adl::tool::ToolId;
use coreda_sensornet::led::{BlinkPattern, LedColor};
use serde::{Deserialize, Serialize};

/// How insistent a reminder is.
///
/// The reward function (1000 / 100 / 50) is built to make the learned
/// policy prefer [`ReminderLevel::Minimal`]: "This promotes the user to
/// exercise his/her brain instead of depending on the system."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReminderLevel {
    /// Short message, fewer blinks.
    Minimal,
    /// Long personalised message, more blinks.
    Specific,
}

impl ReminderLevel {
    /// Both levels, minimal first.
    pub const ALL: [ReminderLevel; 2] = [ReminderLevel::Minimal, ReminderLevel::Specific];
}

impl fmt::Display for ReminderLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReminderLevel::Minimal => "minimal",
            ReminderLevel::Specific => "specific",
        })
    }
}

/// A planning-subsystem output: "the tool ID that should be used in the
/// next step and the reminding level".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Prompt {
    /// The tool to use next.
    pub tool: ToolId,
    /// How insistently to remind.
    pub level: ReminderLevel,
}

impl Prompt {
    /// The LED blinks a reminder of this prompt sends under `trigger`,
    /// in delivery order: a red blink on a wrongly used tool, then the
    /// prompted tool's green one, both at the prompt's level. When the
    /// prompt targets the very tool being misused (it predicted the step
    /// the user is fumbling), a red LED would contradict the green one on
    /// the same tool — "stop using the kettle, use the kettle" — so only
    /// a tool the prompt steers *away* from blinks red.
    pub(crate) fn blinks(self, trigger: Trigger) -> impl Iterator<Item = (ToolId, BlinkPattern)> {
        let pattern = move |color| match self.level {
            ReminderLevel::Minimal => BlinkPattern::minimal(color),
            ReminderLevel::Specific => BlinkPattern::specific(color),
        };
        let red = match trigger {
            Trigger::WrongTool { used } if used != self.tool => Some((used, LedColor::Red)),
            _ => None,
        };
        let blinks = red.into_iter().chain([(self.tool, LedColor::Green)]);
        blinks.map(move |(tool, color)| (tool, pattern(color)))
    }
}

/// What caused a reminder (paper §2.3: the two trigger situations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Trigger {
    /// "The user does not use the tool s/he should use for a certain
    /// moment."
    IdleTimeout,
    /// "The user incorrectly uses another tool."
    WrongTool {
        /// The tool being wrongly used.
        used: ToolId,
    },
}

/// One concrete delivery action of a reminder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ReminderMethod {
    /// Text shown on the display.
    TextMessage(String),
    /// Picture of the tool shown on the display (by tool name).
    ToolPicture(String),
    /// Blink the green LED on the target tool.
    GreenLed {
        /// The tool whose LED blinks.
        tool: ToolId,
        /// The blink pattern.
        pattern: BlinkPattern,
    },
    /// Blink the red LED on the wrongly used tool.
    RedLed {
        /// The tool whose LED blinks.
        tool: ToolId,
        /// The blink pattern.
        pattern: BlinkPattern,
    },
}

/// A fully rendered reminder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reminder {
    /// The prompt being delivered.
    pub prompt: Prompt,
    /// What triggered it.
    pub trigger: Trigger,
    /// The delivery methods, in presentation order.
    pub methods: Vec<ReminderMethod>,
}

impl Reminder {
    /// Number of delivery methods (Figure 1 shows 4 for a wrong-tool
    /// reminder and 3 for an idle-timeout reminder).
    #[must_use]
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }
}

/// Renders prompts into reminders and praise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemindingSubsystem {
    user_name: String,
    /// Caregiver-supplied rich descriptions per tool, used by
    /// specific-level messages ("the black tea-box").
    descriptions: std::collections::HashMap<ToolId, String>,
}

impl RemindingSubsystem {
    /// Creates a renderer that personalises specific-level messages for
    /// `user_name`.
    #[must_use]
    pub fn new(user_name: impl Into<String>) -> Self {
        RemindingSubsystem { user_name: user_name.into(), descriptions: std::collections::HashMap::new() }
    }

    /// Adds a caregiver-supplied description for `tool`, used in
    /// specific-level messages in place of the bare tool name — the
    /// paper's own example is "Mr. Kim, use the *black tea-box* in front
    /// of you."
    #[must_use]
    pub fn with_description(mut self, tool: ToolId, description: impl Into<String>) -> Self {
        self.descriptions.insert(tool, description.into());
        self
    }

    /// The user this subsystem addresses.
    #[must_use]
    pub fn user_name(&self) -> &str {
        &self.user_name
    }

    /// Renders a reminder.
    ///
    /// An idle-timeout reminder carries three methods (text, green LED,
    /// picture); a wrong-tool reminder adds the red LED on the offending
    /// tool, matching the two prompt boxes of Figure 1.
    ///
    /// # Panics
    ///
    /// Panics if the prompted tool is not part of `spec`.
    #[must_use]
    pub fn compose(&self, prompt: Prompt, trigger: Trigger, spec: &AdlSpec) -> Reminder {
        let tool = spec
            .tool(prompt.tool)
            .unwrap_or_else(|| panic!("prompted tool {t} is not in {spec}", t = prompt.tool));
        let text = match prompt.level {
            ReminderLevel::Minimal => format!("Please use {}.", tool.name()),
            ReminderLevel::Specific => {
                let described = self
                    .descriptions
                    .get(&prompt.tool)
                    .map_or(tool.name(), String::as_str);
                format!(
                    "{name}, please use the {described} in front of you.",
                    name = self.user_name,
                )
            }
        };
        let mut methods = vec![ReminderMethod::TextMessage(text)];
        methods.extend(prompt.blinks(trigger).map(|(tool, pattern)| match pattern.color {
            LedColor::Red => ReminderMethod::RedLed { tool, pattern },
            LedColor::Green => ReminderMethod::GreenLed { tool, pattern },
        }));
        methods.push(ReminderMethod::ToolPicture(tool.name().to_owned()));
        Reminder { prompt, trigger, methods }
    }

    /// The praise issued when the user takes the correct step
    /// (Figure 1: "Excellent!").
    #[must_use]
    pub fn praise(&self) -> &'static str {
        "Excellent!"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coreda_adl::activity::catalog;

    fn subsystem() -> RemindingSubsystem {
        RemindingSubsystem::new("Mr. Tanaka")
    }

    #[test]
    fn idle_reminder_has_three_methods() {
        // Figure 1, t = 71 s: text + green LED + picture.
        let tea = catalog::tea_making();
        let prompt =
            Prompt { tool: ToolId::new(catalog::TEA_CUP), level: ReminderLevel::Minimal };
        let r = subsystem().compose(prompt, Trigger::IdleTimeout, &tea);
        assert_eq!(r.method_count(), 3);
        assert!(matches!(&r.methods[0], ReminderMethod::TextMessage(t) if t == "Please use tea-cup."));
        assert!(matches!(&r.methods[1], ReminderMethod::GreenLed { tool, .. } if *tool == prompt.tool));
        assert!(matches!(&r.methods[2], ReminderMethod::ToolPicture(n) if n == "tea-cup"));
    }

    #[test]
    fn wrong_tool_reminder_has_four_methods() {
        // Figure 1, t = 13 s: text + red LED on teacup + green LED on pot
        // + picture of pot.
        let tea = catalog::tea_making();
        let prompt = Prompt { tool: ToolId::new(catalog::POT), level: ReminderLevel::Minimal };
        let trigger = Trigger::WrongTool { used: ToolId::new(catalog::TEA_CUP) };
        let r = subsystem().compose(prompt, trigger, &tea);
        assert_eq!(r.method_count(), 4);
        assert!(matches!(&r.methods[1], ReminderMethod::RedLed { tool, .. }
            if *tool == ToolId::new(catalog::TEA_CUP)));
        assert!(matches!(&r.methods[2], ReminderMethod::GreenLed { tool, .. }
            if *tool == ToolId::new(catalog::POT)));
    }

    #[test]
    fn no_red_led_when_the_misused_tool_is_the_prompted_one() {
        // Misusing the very tool the planner prompts for (the user is
        // fumbling the right tool): the reminder must guide, not
        // simultaneously red- and green-blink the same tool.
        let tea = catalog::tea_making();
        let prompt = Prompt { tool: ToolId::new(catalog::POT), level: ReminderLevel::Minimal };
        let trigger = Trigger::WrongTool { used: ToolId::new(catalog::POT) };
        let r = subsystem().compose(prompt, trigger, &tea);
        assert!(
            !r.methods.iter().any(|m| matches!(m, ReminderMethod::RedLed { .. })),
            "{:?}",
            r.methods
        );
        assert!(matches!(&r.methods[1], ReminderMethod::GreenLed { tool, .. }
            if *tool == ToolId::new(catalog::POT)));
    }

    #[test]
    fn specific_messages_are_personalised_and_longer() {
        let tea = catalog::tea_making();
        let min = subsystem().compose(
            Prompt { tool: ToolId::new(catalog::TEA_BOX), level: ReminderLevel::Minimal },
            Trigger::IdleTimeout,
            &tea,
        );
        let spec = subsystem().compose(
            Prompt { tool: ToolId::new(catalog::TEA_BOX), level: ReminderLevel::Specific },
            Trigger::IdleTimeout,
            &tea,
        );
        let text = |r: &Reminder| match &r.methods[0] {
            ReminderMethod::TextMessage(t) => t.clone(),
            other => panic!("expected text, got {other:?}"),
        };
        assert!(text(&spec).contains("Mr. Tanaka"));
        assert!(text(&spec).len() > text(&min).len());
    }

    #[test]
    fn specific_level_blinks_more() {
        let tea = catalog::tea_making();
        let blink_count = |level| {
            let r = subsystem().compose(
                Prompt { tool: ToolId::new(catalog::KETTLE), level },
                Trigger::IdleTimeout,
                &tea,
            );
            r.methods
                .iter()
                .find_map(|m| match m {
                    ReminderMethod::GreenLed { pattern, .. } => Some(pattern.blinks),
                    _ => None,
                })
                .unwrap()
        };
        assert!(blink_count(ReminderLevel::Specific) > blink_count(ReminderLevel::Minimal));
    }

    #[test]
    fn specific_messages_use_caregiver_descriptions() {
        // The paper's own example text: "Mr. Kim, use the black tea-box
        // in front of you."
        let tea = catalog::tea_making();
        let subsystem = RemindingSubsystem::new("Mr. Kim")
            .with_description(ToolId::new(catalog::TEA_BOX), "black tea-box");
        let r = subsystem.compose(
            Prompt { tool: ToolId::new(catalog::TEA_BOX), level: ReminderLevel::Specific },
            Trigger::IdleTimeout,
            &tea,
        );
        let text = match &r.methods[0] {
            ReminderMethod::TextMessage(t) => t.clone(),
            other => panic!("expected text, got {other:?}"),
        };
        assert_eq!(text, "Mr. Kim, please use the black tea-box in front of you.");
        // Minimal messages stay terse and undecorated.
        let r = subsystem.compose(
            Prompt { tool: ToolId::new(catalog::TEA_BOX), level: ReminderLevel::Minimal },
            Trigger::IdleTimeout,
            &tea,
        );
        assert!(matches!(&r.methods[0],
            ReminderMethod::TextMessage(t) if t == "Please use tea-box."));
    }

    #[test]
    fn praise_matches_figure1() {
        assert_eq!(subsystem().praise(), "Excellent!");
    }

    #[test]
    fn levels_display() {
        assert_eq!(ReminderLevel::Minimal.to_string(), "minimal");
        assert_eq!(ReminderLevel::Specific.to_string(), "specific");
    }

    #[test]
    #[should_panic(expected = "is not in")]
    fn prompt_for_foreign_tool_rejected() {
        let tea = catalog::tea_making();
        let _ = subsystem().compose(
            Prompt { tool: ToolId::new(99), level: ReminderLevel::Minimal },
            Trigger::IdleTimeout,
            &tea,
        );
    }
}
