//! Seeded workload inputs. The seed draws every request a workload sends;
//! the program under test only sees the generated requests.

use crate::rng::{distinct_indices, Rng};
use pmt_api::{ExploreRequest, MachineSpec, PredictRequest, SpaceSpec};
use pmt_dse::LazyDesignSpace;

/// The explore objectives a seed picks from.
pub const OBJECTIVES: [&str; 6] = ["seconds", "cpi", "power", "energy", "edp", "ed2p"];
/// The top-K sizes a seed picks from.
pub const TOP_KS: [usize; 3] = [5, 10, 20];
/// The profiles `predict-cold` cycles through, in equal shares.
pub const PREDICT_PROFILES: [&str; 4] = ["astar", "gcc", "mcf", "lbm"];

/// Seed streams, one per purpose, so adding a purpose moves no other.
pub const EXPLORE_STREAM: u64 = 1;
pub const PREDICT_STREAM: u64 = 2;
pub const SERVE_STREAM: u64 = 3;
pub const PROBE_STREAM: u64 = 4;

/// `explore-big`'s one request: the `big` space over `profile`, with a
/// seeded objective and top-K and no constraints or budgets.
pub fn explore_request(seed: u64, profile: &str) -> ExploreRequest {
    let mut rng = Rng::stream(seed, EXPLORE_STREAM);
    let mut req = ExploreRequest::new(profile, SpaceSpec::named("big"));
    req.objective = OBJECTIVES[rng.below(OBJECTIVES.len())].to_string();
    req.top_k = TOP_KS[rng.below(TOP_KS.len())];
    req
}

/// The `predict-cold` request stream: distinct seeded points of a space,
/// each for one of [`PREDICT_PROFILES`]. Every block of four consecutive
/// requests covers the four profiles once, in a seeded order, so the seed
/// moves points and order but never the mix.
pub struct PredictStream {
    rng: Rng,
    /// A seeded shuffle of the whole space, taken in order.
    order: Vec<usize>,
    block: [usize; 4],
    next: usize,
}

impl PredictStream {
    pub fn new(seed: u64, space_len: usize) -> PredictStream {
        let mut rng = Rng::stream(seed, PREDICT_STREAM);
        let order = distinct_indices(&mut rng, space_len, space_len);
        PredictStream {
            rng,
            order,
            block: [0, 1, 2, 3],
            next: 0,
        }
    }

    /// The next request as (index into [`PREDICT_PROFILES`], point index).
    pub fn next_point(&mut self) -> (usize, usize) {
        let slot = self.next % self.block.len();
        if slot == 0 {
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i + 1);
                self.block.swap(i, j);
            }
        }
        let point = self.order[self.next % self.order.len()];
        self.next += 1;
        (self.block[slot], point)
    }
}

/// A predict request for point `index` of `space`, machine inline.
pub fn predict_request<S: LazyDesignSpace + ?Sized>(
    profile: &str,
    space: &S,
    index: usize,
) -> PredictRequest {
    PredictRequest::new(profile, MachineSpec::inline(space.point_at(index).machine))
}
