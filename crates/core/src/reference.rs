//! The scalar conformance reference: one design point evaluated with
//! every fitted curve refitted from the raw profile and queried through
//! [`CacheModel::from_fitted`], memo-less. It shares no curve storage
//! with the [`PreparedProfile`] arena, so the identity suites in
//! `crates/core/tests` compare both production paths —
//! [`IntervalModel`] and [`BatchPredictor`](crate::BatchPredictor) —
//! against an independent answer instead of against each other. Not a
//! production entry point: it refits every curve on every call.

use crate::cache_model::CacheModel;
use crate::mlp::StrideScratch;
use crate::model::{CurveId, EvalHooks, IntervalModel, Prediction};
use crate::prepared::PreparedProfile;
use pmt_statstack::StackDistanceModel;

/// Predict one design point through the scalar reference path. Must be
/// byte-identical to [`IntervalModel::predict_prepared`].
#[doc(hidden)]
pub fn predict(model: &IntervalModel, prepared: &PreparedProfile<'_>) -> Prediction {
    model.predict_with(prepared, &mut DirectHooks::refit(prepared))
}

/// Every curve refitted, in `CurveId` evaluation order.
struct DirectHooks {
    models: Vec<StackDistanceModel>,
    scratch: StrideScratch,
}

impl DirectHooks {
    fn refit(prepared: &PreparedProfile<'_>) -> DirectHooks {
        let profile = prepared.profile();
        let memory = &profile.memory;
        let windows = profile
            .micro_traces
            .iter()
            .flat_map(|t| [&t.loads, &t.stores]);
        let models = [&memory.inst, &memory.loads, &memory.stores]
            .into_iter()
            .chain(windows)
            .map(StackDistanceModel::from_reuse)
            .collect();
        DirectHooks {
            models,
            scratch: StrideScratch::default(),
        }
    }
}

impl EvalHooks for DirectHooks {
    fn cache_model(&mut self, id: CurveId, lines: [u64; 3]) -> CacheModel {
        CacheModel::from_fitted(&self.models[id.arena_index() as usize], lines)
    }

    fn stride_scratch(&mut self) -> &mut StrideScratch {
        &mut self.scratch
    }
}
