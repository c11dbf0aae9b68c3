//! The wire form of a machine: named reference configurations or a full
//! inline description, so requests stay machine-description-driven.

use crate::ApiError;
use pmt_uarch::MachineConfig;
use serde::{Deserialize, Serialize};

/// The named reference machines every `pmt` front-end accepts.
pub const MACHINE_NAMES: &[&str] = &["nehalem", "nehalem-pf", "low-power"];

/// Resolve one of the [`MACHINE_NAMES`] to its configuration.
pub fn machine_by_name(name: &str) -> Option<MachineConfig> {
    match name {
        "nehalem" => Some(MachineConfig::nehalem()),
        "nehalem-pf" => Some(MachineConfig::nehalem_with_prefetcher()),
        "low-power" => Some(MachineConfig::low_power()),
        _ => None,
    }
}

/// A machine, over the wire: exactly one of `name` (a reference machine)
/// or `config` (a complete inline [`MachineConfig`] — new cores are just
/// data, no server change required).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// One of [`MACHINE_NAMES`], or null when `config` is given.
    pub name: Option<String>,
    /// A full machine description, or null when `name` is given.
    pub config: Option<MachineConfig>,
}

impl MachineSpec {
    /// Spec for a named reference machine.
    pub fn named(name: &str) -> MachineSpec {
        MachineSpec {
            name: Some(name.to_string()),
            config: None,
        }
    }

    /// Spec carrying a full inline machine description.
    pub fn inline(config: MachineConfig) -> MachineSpec {
        MachineSpec {
            name: None,
            config: Some(config),
        }
    }

    /// Materialize the machine, rejecting ambiguous or unknown specs, and
    /// inline machines that fail [`MachineConfig::check`], with a
    /// structured error (400 `bad_machine` names the offending field).
    pub fn resolve(&self) -> Result<MachineConfig, ApiError> {
        match (&self.name, &self.config) {
            (Some(_), Some(_)) => Err(ApiError::bad_request(
                "ambiguous_machine",
                "machine spec sets both `name` and `config`; use exactly one",
            )),
            (None, None) => Err(ApiError::bad_request(
                "missing_machine",
                "machine spec sets neither `name` nor `config`",
            )),
            (Some(name), None) => machine_by_name(name).ok_or_else(|| {
                ApiError::bad_request(
                    "unknown_machine",
                    format!(
                        "unknown machine `{name}` (known: {})",
                        MACHINE_NAMES.join(", ")
                    ),
                )
            }),
            (None, Some(config)) => {
                config.check().map_err(bad_machine)?;
                Ok(config.clone())
            }
        }
    }
}

/// The structured 400 for a machine [`MachineConfig::check`] refuses.
fn bad_machine(err: pmt_uarch::MachineError) -> ApiError {
    ApiError::bad_request("bad_machine", err.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Breaks one field of a machine.
    type Breaker = fn(&mut MachineConfig);

    #[test]
    fn every_listed_name_resolves() {
        for name in MACHINE_NAMES {
            let m = MachineSpec::named(name).resolve().unwrap();
            assert_eq!(&machine_by_name(name).unwrap(), &m);
        }
    }

    #[test]
    fn unknown_ambiguous_and_empty_specs_are_structured_errors() {
        let err = MachineSpec::named("sparc").resolve().unwrap_err();
        assert_eq!(err.body.code, "unknown_machine");
        assert!(err.body.message.contains("sparc"));

        let both = MachineSpec {
            name: Some("nehalem".into()),
            config: Some(MachineConfig::nehalem()),
        };
        assert_eq!(both.resolve().unwrap_err().body.code, "ambiguous_machine");

        let neither = MachineSpec {
            name: None,
            config: None,
        };
        assert_eq!(neither.resolve().unwrap_err().body.code, "missing_machine");
    }

    #[test]
    fn degenerate_inline_machines_are_bad_machine_errors() {
        let cases: [(&str, Breaker); 4] = [
            ("core.rob_size", |m| m.core.rob_size = 0),
            ("core.dispatch_width", |m| m.core.dispatch_width = 0),
            ("caches.l1d.line_bytes", |m| m.caches.l1d.line_bytes = 0),
            ("core.frequency_ghz", |m| m.core.frequency_ghz = f64::NAN),
        ];
        for (field, break_it) in cases {
            let mut m = MachineConfig::nehalem();
            break_it(&mut m);
            let err = MachineSpec::inline(m).resolve().unwrap_err();
            assert_eq!(err.status, 400);
            assert_eq!(err.body.code, "bad_machine");
            assert!(err.body.message.contains(field), "{}", err.body.message);
        }
    }

    #[test]
    fn inline_config_round_trips_and_resolves_to_itself() {
        let mut m = MachineConfig::low_power();
        m.name = "custom-core".into();
        let spec = MachineSpec::inline(m.clone());
        let json = serde_json::to_string(&spec).unwrap();
        let back: MachineSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.resolve().unwrap(), m);
    }
}
