//! # ipra-cfg — control-flow analyses
//!
//! Control-flow graph extraction, dominators, natural loops and liveness
//! — the analysis substrate required by priority-based coloring and by
//! the shrink-wrap placement optimization of Chow's PLDI 1988 paper.
//! Per-function tables are flat: the CFG's edge lists are compressed
//! sparse rows ([`Csr`]) and each liveness table is one [`BitMatrix`].
//!
//! ```
//! use ipra_ir::builder::FunctionBuilder;
//! use ipra_cfg::{Cfg, Dominators, LoopInfo, Liveness};
//!
//! let mut b = FunctionBuilder::new("f");
//! let x = b.param("x");
//! b.ret(Some(x.into()));
//! let f = b.build();
//!
//! let cfg = Cfg::new(&f);
//! let dom = Dominators::compute(&cfg);
//! let loops = LoopInfo::compute(&cfg, &dom);
//! let live = Liveness::compute(&f, &cfg);
//! assert!(loops.loops.is_empty());
//! assert!(live.is_live_in(f.entry, x));
//! ```

#![warn(missing_docs)]

pub mod bitset;
pub mod csr;
pub mod dominators;
pub mod graph;
pub mod liveness;
pub mod loops;

pub use bitset::{BitMatrix, BitSet};
pub use csr::Csr;
pub use dominators::Dominators;
pub use graph::Cfg;
pub use liveness::Liveness;
pub use loops::{LoopInfo, NaturalLoop};
