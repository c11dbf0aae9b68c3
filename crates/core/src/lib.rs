//! The micro-architecture independent interval model — the paper's primary
//! contribution (thesis Ch 3–4; Eq 3.1):
//!
//! ```text
//! C = N/D_eff + m_bp·(c_res + c_fe) + Σ_i m_ILi·c_Li+1
//!     + m_LLC·(c_mem + c_bus)/MLP + P_hLLC
//! ```
//!
//! Every input is computed from a single micro-architecture independent
//! [`ApplicationProfile`](pmt_profiler::ApplicationProfile) plus a
//! [`MachineConfig`](pmt_uarch::MachineConfig) — no per-configuration
//! simulation:
//!
//! * **Base**: μops over the *effective dispatch rate* (Eq 3.10), limited
//!   by the physical width, the critical dependence path, issue-port
//!   scheduling and (non-)pipelined functional units ([`dispatch`]),
//! * **Branch**: misprediction count from linear branch entropy, penalty
//!   from the leaky-bucket resolution algorithm (Alg 3.2, [`branch_penalty`]),
//! * **Caches**: per-level miss rates from StatStack ([`cache_model`]),
//! * **Memory**: two MLP models — the cold-miss model (Eq 4.1–4.3) and the
//!   stride model over a rebuilt virtual instruction stream (§4.5) — plus
//!   MSHR soft-capping (Eq 4.4), memory-bus queuing (Eq 4.5–4.6), LLC-hit
//!   chaining (Eq 4.7–4.12) and stride-prefetch timeliness (Eq 4.13),
//! * **Power**: predicted activity factors (Eq 3.16) for the power model.
//!
//! The model is evaluated *per micro-trace* and combined (the TC'16
//! insight), or on the combined profile (the ISPASS'15 variant) — see
//! [`EvaluationMode`].
//!
//! The machine-independent half of an evaluation — fitting every
//! StatStack model, class counts, entropy fallbacks, virtual-stream
//! skeletons — is hoisted into [`PreparedProfile`]: **prepare once,
//! predict many**. [`IntervalModel::predict_prepared`] and the
//! sweep-oriented [`IntervalModel::predict_summary`] evaluate any number
//! of machine configurations against one preparation, bit-identical to
//! [`IntervalModel::predict`] (which wraps them).
//!
//! # Example
//!
//! ```
//! use pmt_core::{IntervalModel, ModelConfig};
//! use pmt_profiler::{Profiler, ProfilerConfig};
//! use pmt_uarch::MachineConfig;
//! use pmt_workloads::WorkloadSpec;
//!
//! let spec = WorkloadSpec::by_name("astar").unwrap();
//! let profile = Profiler::new(ProfilerConfig::fast_test())
//!     .profile_named("astar", &mut spec.trace(50_000));
//! let prediction = IntervalModel::new(&MachineConfig::nehalem()).predict(&profile);
//! assert!(prediction.cpi() > 0.25);
//! ```

pub mod branch_penalty;
pub mod cache_model;
mod config;
pub mod dispatch;
pub mod kernels;
pub mod llc_chaining;
pub mod mlp;
mod model;
mod moments;
pub mod multicore;
mod prepared;
#[doc(hidden)]
pub mod reference;
pub mod smt;

pub use config::{EvaluationMode, MlpModelKind, ModelConfig};
pub use kernels::{BatchPredictor, MemoStats};
pub use model::{IntervalModel, Prediction, PredictionSummary, WindowPrediction};
pub use moments::Moments;
pub use multicore::{CorePrediction, CorunPrediction, MulticoreModel};
pub use prepared::PreparedProfile;
pub use smt::{SmtModel, SmtPrediction, ThreadPrediction};
