//! The complete machine description.

use crate::bp::PredictorConfig;
use crate::cache::CacheHierarchy;
use crate::core_cfg::CoreConfig;
use crate::exec::ExecConfig;
use crate::mem::MemoryConfig;
use crate::prefetch::PrefetcherConfig;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Everything the model and the simulator need to know about a processor.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Human-readable identifier (used in experiment output).
    pub name: String,
    /// Core pipeline parameters.
    pub core: CoreConfig,
    /// Issue ports and functional units.
    pub exec: ExecConfig,
    /// Cache hierarchy.
    pub caches: CacheHierarchy,
    /// DRAM / bus / MSHRs.
    pub mem: MemoryConfig,
    /// Branch predictor.
    pub predictor: PredictorConfig,
    /// Hardware prefetcher.
    pub prefetcher: PrefetcherConfig,
}

impl MachineConfig {
    /// The Nehalem-based reference architecture of thesis Table 6.1.
    pub fn nehalem() -> MachineConfig {
        MachineConfig {
            name: "nehalem-ref".to_string(),
            core: CoreConfig::nehalem(),
            exec: ExecConfig::nehalem(),
            caches: CacheHierarchy::nehalem(),
            mem: MemoryConfig::nehalem(),
            predictor: PredictorConfig::nehalem(),
            prefetcher: PrefetcherConfig::disabled(),
        }
    }

    /// The reference architecture with the stride prefetcher enabled
    /// (thesis Table 6.4 variant used in §6.6).
    pub fn nehalem_with_prefetcher() -> MachineConfig {
        let mut m = Self::nehalem();
        m.name = "nehalem-ref+pf".to_string();
        m.prefetcher = PrefetcherConfig::stride_64();
        m
    }

    /// A low-power design: narrow pipeline, small windows and caches
    /// (used for the thesis' low-power comparisons, e.g. Fig 6.13).
    pub fn low_power() -> MachineConfig {
        use crate::cache::CacheConfig;
        let mut m = Self::nehalem();
        m.name = "low-power".to_string();
        m.core = m.core.with_dispatch_width(2).with_rob(64);
        m.core.frequency_ghz = 1.6;
        m.core.vdd = 0.9;
        m.caches.l1i = CacheConfig::new(16, 4, 64, 1);
        m.caches.l1d = CacheConfig::new(16, 8, 64, 2);
        m.caches.l2 = CacheConfig::new(128, 8, 64, 8);
        m.caches.l3 = CacheConfig::new(2 * 1024, 16, 64, 26);
        m
    }

    /// Average μop execution latency for a given μop-class frequency
    /// vector, the `lat` input of thesis Eq 3.6 (load latency is the L1
    /// hit latency; cache-miss effects are charged elsewhere).
    pub fn average_latency(&self, class_fractions: &[f64; pmt_trace::UopClass::COUNT]) -> f64 {
        let mut lat = 0.0;
        let mut total = 0.0;
        for class in pmt_trace::UopClass::ALL {
            let f = class_fractions[class.index()];
            lat += f * self.exec.latency(class) as f64;
            total += f;
        }
        if total > 0.0 {
            lat / total
        } else {
            1.0
        }
    }
}

impl MachineConfig {
    /// Reject a machine the model cannot evaluate: a zero dispatch width
    /// or ROB (the model divides by both), a cache line size that is
    /// zero or not a power of two (line counts divide by it), or a clock
    /// frequency that is not finite and positive (run times divide by
    /// it). Every shipped machine and every point of the canned design
    /// spaces passes. The error names the first offending field.
    pub fn check(&self) -> Result<(), MachineError> {
        for (field, value) in [
            ("core.dispatch_width", self.core.dispatch_width),
            ("core.rob_size", self.core.rob_size),
        ] {
            if value == 0 {
                return Err(MachineError::new(field, "must be at least 1 (got 0)"));
            }
        }
        for (field, cache) in [
            ("caches.l1i.line_bytes", &self.caches.l1i),
            ("caches.l1d.line_bytes", &self.caches.l1d),
            ("caches.l2.line_bytes", &self.caches.l2),
            ("caches.l3.line_bytes", &self.caches.l3),
        ] {
            if !cache.line_bytes.is_power_of_two() {
                return Err(MachineError::new(
                    field,
                    format!("must be a power of two (got {})", cache.line_bytes),
                ));
            }
        }
        let f = self.core.frequency_ghz;
        if !(f.is_finite() && f > 0.0) {
            return Err(MachineError::new(
                "core.frequency_ghz",
                format!("must be finite and positive (got {f})"),
            ));
        }
        Ok(())
    }
}

/// Why [`MachineConfig::check`] refused a machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineError {
    /// Dotted path of the offending field, e.g. `core.rob_size`.
    pub field: &'static str,
    /// What is wrong with its value.
    pub reason: String,
}

impl MachineError {
    fn new(field: &'static str, reason: impl Into<String>) -> MachineError {
        MachineError {
            field,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "machine field `{}` {}", self.field, self.reason)
    }
}

impl std::error::Error for MachineError {}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::nehalem()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Breaks one field of a machine.
    type Breaker = fn(&mut MachineConfig);
    use pmt_trace::UopClass;

    #[test]
    fn reference_is_self_consistent() {
        let m = MachineConfig::nehalem();
        assert!(m.caches.is_inclusive_friendly());
        assert!(m.core.rob_size >= m.core.iq_size);
        assert!(m.mem.dram_latency > m.caches.l3.latency);
    }

    #[test]
    fn low_power_is_strictly_smaller() {
        let lp = MachineConfig::low_power();
        let ref_m = MachineConfig::nehalem();
        assert!(lp.core.dispatch_width < ref_m.core.dispatch_width);
        assert!(lp.core.rob_size < ref_m.core.rob_size);
        assert!(lp.caches.l3.size_bytes() < ref_m.caches.l3.size_bytes());
        assert!(lp.core.vdd < ref_m.core.vdd);
    }

    #[test]
    fn average_latency_weighs_classes() {
        let m = MachineConfig::nehalem();
        let mut fr = [0.0; UopClass::COUNT];
        fr[UopClass::IntAlu.index()] = 0.5;
        fr[UopClass::Load.index()] = 0.5;
        // 0.5·1 + 0.5·2 = 1.5
        assert!((m.average_latency(&fr) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn shipped_machines_and_canned_spaces_pass_the_check() {
        for m in [
            MachineConfig::nehalem(),
            MachineConfig::nehalem_with_prefetcher(),
            MachineConfig::low_power(),
        ] {
            assert_eq!(m.check(), Ok(()), "{}", m.name);
        }
        for space in [
            crate::DesignSpace::thesis_table_6_3(),
            crate::DesignSpace::validation_subspace(),
            crate::DesignSpace::small(),
        ] {
            for p in space.enumerate() {
                assert_eq!(p.machine.check(), Ok(()), "{}", p.machine.name);
            }
        }
    }

    #[test]
    fn check_names_the_offending_field() {
        let cases: [(&str, Breaker); 8] = [
            ("core.rob_size", |m| m.core.rob_size = 0),
            ("core.dispatch_width", |m| m.core.dispatch_width = 0),
            ("caches.l1i.line_bytes", |m| m.caches.l1i.line_bytes = 48),
            ("caches.l1d.line_bytes", |m| m.caches.l1d.line_bytes = 0),
            ("caches.l2.line_bytes", |m| m.caches.l2.line_bytes = 96),
            ("caches.l3.line_bytes", |m| m.caches.l3.line_bytes = 0),
            ("core.frequency_ghz", |m| m.core.frequency_ghz = 0.0),
            ("core.frequency_ghz", |m| m.core.frequency_ghz = f64::NAN),
        ];
        for (field, break_it) in cases {
            let mut m = MachineConfig::nehalem();
            break_it(&mut m);
            let err = m.check().unwrap_err();
            assert_eq!(err.field, field);
            assert!(err.to_string().contains(field), "{err}");
        }
        let mut m = MachineConfig::nehalem();
        for f in [-1.0, f64::INFINITY, f64::NEG_INFINITY] {
            m.core.frequency_ghz = f;
            assert_eq!(m.check().unwrap_err().field, "core.frequency_ghz");
        }
    }

    #[test]
    fn average_latency_of_empty_mix_is_unit() {
        let m = MachineConfig::nehalem();
        let fr = [0.0; UopClass::COUNT];
        assert_eq!(m.average_latency(&fr), 1.0);
    }
}
