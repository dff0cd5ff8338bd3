//! # ipra-ir — register-transfer IR
//!
//! The intermediate representation used by the reproduction of Fred Chow's
//! *"Minimizing Register Usage Penalty at Procedure Calls"* (PLDI 1988).
//!
//! The IR mirrors the shape of Ucode at the point where Uopt's register
//! allocator runs: non-SSA three-address code over an unlimited supply of
//! virtual registers, explicit memory for globals and local arrays, direct
//! and indirect calls, and one terminator per basic block.
//!
//! ## Quick example
//!
//! ```
//! use ipra_ir::builder::FunctionBuilder;
//! use ipra_ir::instr::BinOp;
//! use ipra_ir::{interp, Module};
//!
//! let mut module = Module::new();
//! let mut b = FunctionBuilder::new("main");
//! let x = b.bin(BinOp::Add, 40, 2);
//! b.print(x);
//! b.ret(None);
//! let main = module.add_func(b.build());
//! module.main = Some(main);
//!
//! let result = interp::run_module(&module)?;
//! assert_eq!(result.output, vec![42]);
//! # Ok::<(), ipra_ir::interp::Trap>(())
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod display;
pub mod entity;
pub mod function;
pub mod hash;
pub mod ids;
pub mod instr;
pub mod interp;
pub mod module;
pub mod verify;

pub use entity::{EntityId, EntityMap, EntityVec};
pub use function::{Block, FuncAttrs, Function, SlotData};
pub use hash::{hash_all_functions, hash_function, Fnv64};
pub use ids::{BlockId, FuncId, GlobalId, InstLoc, SlotId, Vreg};
pub use instr::{Address, BinOp, Callee, Inst, Operand, Terminator, UnOp};
pub use module::{GlobalData, Module};
