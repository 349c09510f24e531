//! Telemetry configuration: the Off/Counters/Full dial.

use std::str::FromStr;

/// How much the runtime records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TelemetryLevel {
    /// Nothing is recorded; behaviour and overhead are identical to an
    /// uninstrumented build. The default.
    #[default]
    Off,
    /// Counters, gauges and streaming histograms — the cheap aggregates the
    /// <3% overhead budget is gated on.
    Counters,
    /// Everything: aggregates plus per-request lifecycle tracing and the
    /// controller decision audit.
    Full,
}

impl TelemetryLevel {
    /// Whether counters/gauges/histograms are recorded at this level.
    pub fn counters_enabled(self) -> bool {
        !matches!(self, TelemetryLevel::Off)
    }

    /// Whether tracing and the decision audit are recorded at this level.
    pub fn full_enabled(self) -> bool {
        matches!(self, TelemetryLevel::Full)
    }

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            TelemetryLevel::Off => "off",
            TelemetryLevel::Counters => "counters",
            TelemetryLevel::Full => "full",
        }
    }
}

impl FromStr for TelemetryLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(TelemetryLevel::Off),
            "counters" => Ok(TelemetryLevel::Counters),
            "full" => Ok(TelemetryLevel::Full),
            other => Err(format!(
                "unknown telemetry level {other:?} (expected off|counters|full)"
            )),
        }
    }
}

/// Telemetry parameters of a serve/fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Recording level.
    pub level: TelemetryLevel,
}

impl TelemetryConfig {
    /// Counters-level configuration.
    pub fn counters() -> Self {
        Self {
            level: TelemetryLevel::Counters,
        }
    }

    /// Full-level configuration.
    pub fn full() -> Self {
        Self {
            level: TelemetryLevel::Full,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_and_gate_features() {
        assert_eq!("off".parse::<TelemetryLevel>(), Ok(TelemetryLevel::Off));
        assert_eq!(
            "counters".parse::<TelemetryLevel>(),
            Ok(TelemetryLevel::Counters)
        );
        assert_eq!("full".parse::<TelemetryLevel>(), Ok(TelemetryLevel::Full));
        assert!("verbose".parse::<TelemetryLevel>().is_err());
        assert!(!TelemetryLevel::Off.counters_enabled());
        assert!(TelemetryLevel::Counters.counters_enabled());
        assert!(!TelemetryLevel::Counters.full_enabled());
        assert!(TelemetryLevel::Full.full_enabled());
        assert_eq!(TelemetryLevel::default(), TelemetryLevel::Off);
    }
}
