//! Modules: the unit of (whole-program or separate) compilation.

use crate::entity::EntityVec;
use crate::function::Function;
use crate::ids::{FuncId, GlobalId};
use crate::instr::{Callee, Inst};

/// A global memory object: `size` 64-bit cells, optionally initialized.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GlobalData {
    /// Name (unique within a module).
    pub name: String,
    /// Number of cells; `1` for a scalar.
    pub size: u32,
    /// Initial values; missing tail cells are zero.
    pub init: Vec<i64>,
}

impl GlobalData {
    /// A zero-initialized scalar global.
    pub fn scalar(name: impl Into<String>) -> Self {
        GlobalData {
            name: name.into(),
            size: 1,
            init: Vec::new(),
        }
    }

    /// A zero-initialized array global.
    pub fn array(name: impl Into<String>, size: u32) -> Self {
        GlobalData {
            name: name.into(),
            size,
            init: Vec::new(),
        }
    }

    /// Whether this global is a scalar cell (register-promotable).
    pub fn is_scalar(&self) -> bool {
        self.size == 1
    }
}

/// A compilation unit: functions plus globals.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Module {
    /// Functions.
    pub funcs: EntityVec<FuncId, Function>,
    /// Global memory objects.
    pub globals: EntityVec<GlobalId, GlobalData>,
    /// Program entry point, when this module is a whole program.
    pub main: Option<FuncId>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Self {
        Module::default()
    }

    /// Drops every buffer's spare capacity ([`Function::shrink_to_fit`]),
    /// for a module kept for long, such as a memo entry.
    pub fn shrink_to_fit(&mut self) {
        for f in self.funcs.values_mut() {
            f.shrink_to_fit();
        }
        self.funcs.shrink_to_fit();
        for g in self.globals.values_mut() {
            g.name.shrink_to_fit();
            g.init.shrink_to_fit();
        }
        self.globals.shrink_to_fit();
    }

    /// Adds a function and returns its id.
    pub fn add_func(&mut self, f: Function) -> FuncId {
        self.funcs.push(f)
    }

    /// Adds a global and returns its id.
    pub fn add_global(&mut self, g: GlobalData) -> GlobalId {
        self.globals.push(g)
    }

    /// Declares a function shell so its id can be referenced before its body
    /// is built; fill it in later with [`Module::define_func`].
    pub fn declare_func(&mut self, name: impl Into<String>) -> FuncId {
        self.funcs.push(Function::new(name))
    }

    /// Replaces the body of a previously declared function.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not declared.
    pub fn define_func(&mut self, id: FuncId, f: Function) {
        self.funcs[id] = f;
    }

    /// Finds a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .find(|(_, f)| f.name == name)
            .map(|(id, _)| id)
    }

    /// Finds a global by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .find(|(_, g)| g.name == name)
            .map(|(id, _)| id)
    }

    /// The set of functions whose address is taken anywhere in the module
    /// (possible indirect-call targets, therefore *open*, paper §3).
    pub fn address_taken(&self) -> Vec<bool> {
        let mut taken = vec![false; self.funcs.len()];
        for (_, f) in self.funcs.iter() {
            for (_, inst) in f.inst_locs() {
                if let Inst::FuncAddr { func, .. } = inst {
                    taken[func.index()] = true;
                }
            }
        }
        taken
    }

    /// Whether any instruction in the module performs an indirect call.
    pub fn has_indirect_calls(&self) -> bool {
        self.funcs.values().any(|f| {
            f.inst_locs().any(|(_, i)| {
                matches!(
                    i,
                    Inst::Call {
                        callee: Callee::Indirect(_),
                        ..
                    }
                )
            })
        })
    }

    /// Total instruction count over all functions.
    pub fn num_insts(&self) -> usize {
        self.funcs.values().map(|f| f.num_insts()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Block;
    use crate::ids::BlockId;
    use crate::instr::{Operand, Terminator};

    #[test]
    fn lookup_by_name() {
        let mut m = Module::new();
        let f = m.add_func(Function::new("alpha"));
        let g = m.add_global(GlobalData::scalar("x"));
        assert_eq!(m.func_by_name("alpha"), Some(f));
        assert_eq!(m.func_by_name("beta"), None);
        assert_eq!(m.global_by_name("x"), Some(g));
        assert!(m.globals[g].is_scalar());
    }

    #[test]
    fn address_taken_detection() {
        let mut m = Module::new();
        let callee = m.add_func(Function::new("callee"));
        let mut caller = Function::new("caller");
        let v = caller.new_vreg();
        let mut b = Block::new(Terminator::Ret(None));
        b.insts.push(Inst::FuncAddr {
            dst: v,
            func: callee,
        });
        b.insts.push(Inst::Call {
            callee: Callee::Indirect(Operand::Reg(v)),
            args: vec![],
            dst: None,
        });
        caller.entry = BlockId(0);
        caller.blocks.push(b);
        m.add_func(caller);
        let taken = m.address_taken();
        assert!(taken[callee.index()]);
        assert_eq!(taken.iter().filter(|&&t| t).count(), 1);
        assert!(m.has_indirect_calls());
    }
}
