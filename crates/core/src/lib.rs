//! # ipra-core — the paper's contribution
//!
//! Priority-based coloring register allocation with the three extensions of
//! Fred Chow's *"Minimizing Register Usage Penalty at Procedure Calls"*
//! (PLDI 1988):
//!
//! 1. per-(variable, register) priorities driven by callee register-usage
//!    summaries, allocated in one bottom-up pass over the call graph (§2–§3);
//! 2. parameter passing in arbitrary registers chosen by the callee (§4);
//! 3. shrink-wrapped placement of callee-saved register saves/restores via
//!    bit-vector data-flow analysis with range extension and the loop
//!    constraint (§5), combined with the propagation rule of §6.
//!
//! The module driver [`ipra::compile_module`] turns an IR module into
//! executable machine code under any [`config::AllocOptions`]
//! configuration.

#![warn(missing_docs)]

pub mod alloc;
pub mod analysis;
pub mod cache;
pub mod color;
pub mod config;
pub mod inline;
pub mod ipra;
pub mod lower;
pub mod normalize;
pub mod parmove;
pub mod pipeline;
pub mod priority;
pub mod promote;
pub mod ranges;
pub mod scratch;
pub mod shrinkwrap;
pub mod summary;

pub use alloc::{allocate_function, CallPlan, FuncAllocation, FuncArtifacts, SummaryEnv};
pub use analysis::{AnalysisCache, FuncAnalyses};
pub use cache::{AllocCache, CacheStats, CachedFunc};
pub use color::{Assignment, VregLoc};
pub use config::{AllocMode, AllocOptions};
pub use inline::{inline_hot_calls, InlineStats, DEFAULT_INLINE_BUDGET};
pub use ipra::{compile_module, compile_module_with_profile, CompiledModule, FuncReport};
pub use normalize::normalize_entries;
pub use pipeline::Pipeline;
pub use priority::PriorityCtx;
pub use promote::{promote_globals, PromotionStats};
pub use ranges::{BlockWeights, CallSiteInfo, LiveRange, RangeData};
pub use scratch::{CompileScratch, MaskPool, MoveScratch, ScratchPool};
pub use shrinkwrap::{shrink_wrap, verify_plan, SavePlan};
pub use summary::{FuncSummary, ParamLoc};
