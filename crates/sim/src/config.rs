//! The one error type every configuration check in the workspace returns.

use std::fmt;

/// An invalid configuration field.
///
/// `field` is the field's path from the top-level device configuration
/// (`geometry.ways`, `gc.victims_per_trigger`, `faults.link.ber`, …), so
/// the same mistake names the same field whichever layer catches it.
///
/// # Examples
///
/// ```
/// use nssd_sim::ConfigError;
///
/// let e = ConfigError::new("op_ratio", "must be in [0, 0.9)");
/// assert_eq!(e.field, "op_ratio");
/// assert_eq!(e.to_string(), "invalid configuration: op_ratio must be in [0, 0.9)");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Path of the offending field.
    pub field: &'static str,
    /// What is wrong with it.
    pub reason: String,
}

impl ConfigError {
    /// An error naming `field` with `reason`.
    pub fn new(field: &'static str, reason: impl Into<String>) -> Self {
        ConfigError {
            field,
            reason: reason.into(),
        }
    }

    /// `Err` of [`ConfigError::new`], for a validation rule's early return.
    pub fn err<T>(field: &'static str, reason: impl Into<String>) -> Result<T, ConfigError> {
        Err(ConfigError::new(field, reason))
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {} {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for String {
    fn from(e: ConfigError) -> Self {
        e.to_string()
    }
}
