//! Branch misprediction penalty (thesis §3.5): the number of mispredicts
//! comes from linear branch entropy; the resolution time from the
//! leaky-bucket algorithm (Alg 3.2).

use pmt_profiler::DependenceProfile;
use serde::{Deserialize, Serialize};

/// Resolution + refill penalty for one misprediction interval.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BranchPenalty {
    /// Branch resolution time `c_res` in cycles.
    pub resolution: f64,
    /// Front-end refill time `c_fe` in cycles.
    pub refill: f64,
}

impl BranchPenalty {
    /// Total penalty per misprediction.
    pub fn total(&self) -> f64 {
        self.resolution + self.refill
    }
}

/// The leaky-bucket algorithm of thesis Alg 3.2.
///
/// Fills the ROB at the dispatch width while draining it at the average
/// number of independent instructions `I(ROB) = ROB/(lat·CP(ROB))` per
/// cycle, until the `interval_uops` of one misprediction interval have
/// been dispatched; the resolution time is then the average instruction
/// latency times the average branch path of the *occupied* ROB fraction.
///
/// # The converged exit
///
/// One fill/drain step maps `occupancy` to a new `occupancy` and reads
/// nothing else that changes: the fill never reads `remaining`, and the
/// result reads only the final occupancy. So once a step leaves
/// `occupancy` unchanged (`==`), every later step would repeat it, and
/// the loop stops there with the very occupancy the full walk would end
/// on. (`-0.0 == 0.0` is no exception: the two give the same fill sum
/// and the same rounded occupancy.) Walks that never settle reuse the
/// previous `CP(occ)` while the rounded occupancy repeats — `cp` is a
/// pure function, so this replays the value it would compute. Both are
/// exact, so the result is bit-identical to stepping every iteration.
pub fn branch_resolution_time(
    deps: &DependenceProfile,
    rob_size: u32,
    dispatch_width: u32,
    interval_uops: f64,
    avg_latency: f64,
) -> f64 {
    let rob = rob_size as f64;
    let d = dispatch_width as f64;
    let mut remaining = interval_uops.max(1.0);
    let mut occupancy: f64 = 0.0;

    // Guard against degenerate profiles.
    let cp_full = deps.cp(rob_size).max(1.0);
    let drain_full = (rob / (avg_latency.max(0.1) * cp_full)).max(0.1);

    let max_iters = 100_000;
    let mut iters = 0;
    // The last rounded occupancy and its (floored) `CP`.
    let mut cp_at: Option<(u32, f64)> = None;
    while remaining > d && iters < max_iters {
        let before = occupancy;
        // Fill.
        if occupancy + d <= rob {
            remaining -= d;
            occupancy += d;
        } else {
            remaining -= rob - occupancy;
            occupancy = rob;
        }
        // Drain at I(ROB_i).
        let occ_rounded = (occupancy.round() as u32).max(1);
        let cp_i = match cp_at {
            Some((occ, cp)) if occ == occ_rounded => cp,
            _ => {
                let cp = deps.cp(occ_rounded).max(1.0);
                cp_at = Some((occ_rounded, cp));
                cp
            }
        };
        let drain = (occupancy / (avg_latency.max(0.1) * cp_i))
            .min(d)
            .max(drain_full.min(d).min(occupancy));
        occupancy = (occupancy - drain).max(0.0);
        iters += 1;
        if occupancy == before {
            break;
        }
    }

    // The branch resolves against the ABP of the instructions still in
    // flight (Alg 3.2 last line).
    let occ_rounded = (occupancy.round() as u32).max(1);
    avg_latency * deps.abp(occ_rounded).max(1.0)
}

/// Assemble the full penalty.
pub fn branch_penalty(
    deps: &DependenceProfile,
    rob_size: u32,
    dispatch_width: u32,
    frontend_depth: u32,
    interval_uops: f64,
    avg_latency: f64,
) -> BranchPenalty {
    BranchPenalty {
        resolution: branch_resolution_time(
            deps,
            rob_size,
            dispatch_width,
            interval_uops,
            avg_latency,
        ),
        refill: frontend_depth as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmt_profiler::DependenceProfile;
    use pmt_trace::{MicroOp, UopClass};

    fn profile_with_chains(serial: bool) -> DependenceProfile {
        let uops: Vec<MicroOp> = (0..2048)
            .map(|i| {
                let mut u = if i % 7 == 0 {
                    MicroOp::branch(i * 4, 0, true)
                } else {
                    MicroOp::compute(UopClass::IntAlu, i * 4, 0)
                };
                if serial && i > 0 {
                    u.dep1 = 1;
                }
                u
            })
            .collect();
        DependenceProfile::profile(&uops, &[16, 32, 64, 128, 256])
    }

    #[test]
    fn serial_code_has_longer_resolution() {
        let serial = profile_with_chains(true);
        let parallel = profile_with_chains(false);
        let r_serial = branch_resolution_time(&serial, 128, 4, 1000.0, 1.0);
        let r_parallel = branch_resolution_time(&parallel, 128, 4, 1000.0, 1.0);
        assert!(
            r_serial > r_parallel,
            "serial {r_serial} vs parallel {r_parallel}"
        );
    }

    #[test]
    fn resolution_scales_with_latency() {
        let p = profile_with_chains(true);
        let r1 = branch_resolution_time(&p, 128, 4, 1000.0, 1.0);
        let r2 = branch_resolution_time(&p, 128, 4, 1000.0, 2.0);
        assert!(r2 > r1);
    }

    #[test]
    fn penalty_includes_refill() {
        let p = profile_with_chains(false);
        let pen = branch_penalty(&p, 128, 4, 5, 1000.0, 1.0);
        assert!((pen.refill - 5.0).abs() < 1e-12);
        assert!(pen.total() > 5.0);
    }

    #[test]
    fn short_intervals_leave_emptier_robs() {
        // Frequent mispredictions never fill the ROB, so the branch path
        // is evaluated at a smaller occupancy.
        let p = profile_with_chains(true);
        let frequent = branch_resolution_time(&p, 256, 4, 40.0, 1.0);
        let rare = branch_resolution_time(&p, 256, 4, 100_000.0, 1.0);
        assert!(frequent <= rare, "frequent {frequent} vs rare {rare}");
    }

    #[test]
    fn terminates_on_degenerate_input() {
        let p = profile_with_chains(false);
        let r = branch_resolution_time(&p, 16, 1, 1e9, 0.0);
        assert!(r.is_finite());
    }

    /// The step-every-iteration walk [`branch_resolution_time`] replaced:
    /// one fill, one fresh `CP` interpolation and one drain per
    /// iteration, until the interval is dispatched or the cap is hit.
    fn stepping_oracle(
        deps: &DependenceProfile,
        rob_size: u32,
        dispatch_width: u32,
        interval_uops: f64,
        avg_latency: f64,
    ) -> f64 {
        let rob = rob_size as f64;
        let d = dispatch_width as f64;
        let mut remaining = interval_uops.max(1.0);
        let mut occupancy: f64 = 0.0;
        let cp_full = deps.cp(rob_size).max(1.0);
        let drain_full = (rob / (avg_latency.max(0.1) * cp_full)).max(0.1);
        let max_iters = 100_000;
        let mut iters = 0;
        while remaining > d && iters < max_iters {
            if occupancy + d <= rob {
                remaining -= d;
                occupancy += d;
            } else {
                remaining -= rob - occupancy;
                occupancy = rob;
            }
            let occ_rounded = (occupancy.round() as u32).max(1);
            let cp_i = deps.cp(occ_rounded).max(1.0);
            let drain = (occupancy / (avg_latency.max(0.1) * cp_i))
                .min(d)
                .max(drain_full.min(d).min(occupancy));
            occupancy = (occupancy - drain).max(0.0);
            iters += 1;
        }
        let occ_rounded = (occupancy.round() as u32).max(1);
        avg_latency * deps.abp(occ_rounded).max(1.0)
    }

    /// A dependence profile with an arbitrary grid and arbitrary (not
    /// necessarily monotone, possibly zero) AP/ABP/CP values.
    fn synthetic_profile(grid: &[u32], abp: &[f64], cp: &[f64]) -> DependenceProfile {
        let json =
            format!("{{\"rob_sizes\":{grid:?},\"ap\":{abp:?},\"abp\":{abp:?},\"cp\":{cp:?}}}");
        serde_json::from_str(&json).expect("synthetic profile parses")
    }

    /// `(grid, abp, cp)` columns: 1–8 distinct sorted ROB sizes, values
    /// spanning "no chains" to "one serial chain" and beyond.
    fn random_columns() -> impl Strategy<Value = (Vec<u32>, Vec<f64>, Vec<f64>)> {
        prop::collection::vec((1u32..=1024, 0.0f64..2.0, 0.0f64..1.5), 1..=8).prop_map(|rows| {
            let mut rows = rows;
            rows.sort_by_key(|r| r.0);
            rows.dedup_by_key(|r| r.0);
            let grid = rows.iter().map(|r| r.0).collect();
            let abp = rows.iter().map(|r| r.1 * r.0 as f64).collect();
            let cp = rows.iter().map(|r| r.2 * r.0 as f64).collect();
            (grid, abp, cp)
        })
    }

    /// Degenerate inputs: the one `terminates_on_degenerate_input`
    /// drives, plus zero-sized machines and non-finite scalars. Each
    /// must give exactly the stepping walk's bits.
    #[test]
    fn converged_exit_matches_stepping_on_degenerate_inputs() {
        let inputs = [
            (16, 1, 1e9, 0.0),
            (0, 4, 1e9, 1.0),
            (128, 0, 1e9, 1.0),
            (0, 0, 1e9, 0.0),
            (1, 1, 1.0, 0.0),
            (512, 8, f64::INFINITY, 50.0),
            (64, 4, f64::NAN, 2.0),
            (64, 4, 1e6, f64::NAN),
            (u32::MAX, 8, 1e9, 1.0),
        ];
        let flat = synthetic_profile(&[1, 64], &[0.0, 0.0], &[0.0, 0.0]);
        for deps in [profile_with_chains(true), profile_with_chains(false), flat] {
            for (rob, width, interval, lat) in inputs {
                assert_eq!(
                    branch_resolution_time(&deps, rob, width, interval, lat).to_bits(),
                    stepping_oracle(&deps, rob, width, interval, lat).to_bits(),
                    "rob {rob} width {width} interval {interval} lat {lat}"
                );
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The converged exit and the cached `CP` change no bit of the
        /// result, on random dependence profiles, machines and intervals.
        #[test]
        fn converged_exit_matches_stepping_bit_for_bit(
            (grid, abp, cp) in random_columns(),
            rob in 1u32..=512,
            width in 1u32..=8,
            interval_exp in 0.0f64..9.0,
            lat in 0.0f64..50.0,
            serial in any::<bool>(),
        ) {
            let interval = 10f64.powf(interval_exp);
            for deps in [synthetic_profile(&grid, &abp, &cp), profile_with_chains(serial)] {
                prop_assert_eq!(
                    branch_resolution_time(&deps, rob, width, interval, lat).to_bits(),
                    stepping_oracle(&deps, rob, width, interval, lat).to_bits(),
                    "grid {:?} cp {:?} rob {} width {} interval {} lat {}",
                    grid, cp, rob, width, interval, lat
                );
                // The input of `terminates_on_degenerate_input`.
                prop_assert_eq!(
                    branch_resolution_time(&deps, 16, 1, 1e9, 0.0).to_bits(),
                    stepping_oracle(&deps, 16, 1, 1e9, 0.0).to_bits()
                );
            }
        }
    }
}
