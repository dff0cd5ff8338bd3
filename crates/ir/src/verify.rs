//! IR well-formedness verification.

use std::fmt;

use crate::function::Function;
use crate::ids::{BlockId, FuncId, InstLoc, Vreg};
use crate::instr::{Address, Callee, Inst, Operand, Terminator};
use crate::module::Module;

/// A structural defect found by the verifier.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VerifyError {
    /// Function where the defect lies, when applicable.
    pub func: Option<FuncId>,
    /// Description of the defect.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.func {
            Some(id) => write!(f, "verify error in {id}: {}", self.message),
            None => write!(f, "verify error: {}", self.message),
        }
    }
}

impl std::error::Error for VerifyError {}

struct Checker<'a> {
    module: &'a Module,
    func_id: FuncId,
    func: &'a Function,
    errors: Vec<VerifyError>,
}

impl Checker<'_> {
    fn err(&mut self, message: String) {
        self.errors.push(VerifyError {
            func: Some(self.func_id),
            message,
        });
    }

    fn check_vreg(&mut self, v: Vreg, what: &str, loc: Option<InstLoc>) {
        if v.index() >= self.func.num_vregs() {
            let at = loc.map(|l| format!(" at {l}")).unwrap_or_default();
            self.err(format!(
                "{what} {v}{at} out of range (function has {} vregs)",
                self.func.num_vregs()
            ));
        }
    }

    fn check_operand(&mut self, o: Operand, loc: InstLoc) {
        if let Operand::Reg(v) = o {
            self.check_vreg(v, "operand", Some(loc));
        }
    }

    fn check_block(&mut self, b: BlockId, what: &str) {
        if !self.func.blocks.contains(b) {
            self.err(format!("{what} references missing block {b}"));
        }
    }

    fn check_address(&mut self, a: Address, loc: InstLoc) {
        match a {
            Address::Global { global, index } => {
                if !self.module.globals.contains(global) {
                    self.err(format!("missing global {global} at {loc}"));
                } else if let Operand::Imm(i) = index {
                    let size = self.module.globals[global].size as i64;
                    if i < 0 || i >= size {
                        self.err(format!(
                            "constant index {i} out of bounds for {global} (size {size}) at {loc}"
                        ));
                    }
                }
                self.check_operand(index, loc);
            }
            Address::Stack { slot, index } => {
                if !self.func.slots.contains(slot) {
                    self.err(format!("missing stack slot {slot} at {loc}"));
                } else if let Operand::Imm(i) = index {
                    let size = self.func.slots[slot].size as i64;
                    if i < 0 || i >= size {
                        self.err(format!(
                            "constant index {i} out of bounds for {slot} (size {size}) at {loc}"
                        ));
                    }
                }
                self.check_operand(index, loc);
            }
        }
    }

    fn check_call(&mut self, callee: &Callee, args: &[Operand], loc: InstLoc) {
        match callee {
            Callee::Direct(f) => {
                if !self.module.funcs.contains(*f) {
                    self.err(format!("call to missing function {f} at {loc}"));
                } else {
                    let want = self.module.funcs[*f].params.len();
                    if want != args.len() {
                        self.err(format!(
                            "call to @{} at {loc} passes {} args, function takes {}",
                            self.module.funcs[*f].name,
                            args.len(),
                            want
                        ));
                    }
                }
            }
            Callee::Indirect(t) => self.check_operand(*t, loc),
        }
        for a in args {
            self.check_operand(*a, loc);
        }
    }

    fn run(&mut self) {
        let f = self.func;
        if !f.blocks.contains(f.entry) {
            self.err(format!("entry block {} does not exist", f.entry));
        }
        let mut seen_params = std::collections::HashSet::new();
        for &p in &f.params {
            self.check_vreg(p, "parameter", None);
            if !seen_params.insert(p) {
                self.err(format!("parameter {p} declared twice"));
            }
        }
        for (block, b) in f.blocks.iter() {
            for (idx, inst) in b.insts.iter().enumerate() {
                let loc = InstLoc { block, inst: idx };
                if let Some(d) = inst.def() {
                    self.check_vreg(d, "definition", Some(loc));
                }
                inst.for_each_use(|v| self.check_vreg(v, "use", Some(loc)));
                match inst {
                    Inst::Load { addr, .. } | Inst::Store { addr, .. } => {
                        self.check_address(*addr, loc)
                    }
                    Inst::Call { callee, args, .. } => self.check_call(callee, args, loc),
                    Inst::FuncAddr { func, .. } if !self.module.funcs.contains(*func) => {
                        self.err(format!("addr of missing function {func} at {loc}"));
                    }
                    _ => {}
                }
            }
            match &b.term {
                Terminator::Ret(_) => {}
                Terminator::Br(t) => self.check_block(*t, "br"),
                Terminator::CondBr {
                    then_to, else_to, ..
                } => {
                    self.check_block(*then_to, "cond_br");
                    self.check_block(*else_to, "cond_br");
                }
            }
        }
    }
}

/// Verifies one function in the context of its module.
///
/// # Errors
///
/// Returns every structural defect found (dangling ids, arity mismatches,
/// out-of-bounds constant indices).
pub fn verify_function(module: &Module, func_id: FuncId) -> Result<(), Vec<VerifyError>> {
    let mut c = Checker {
        module,
        func_id,
        func: &module.funcs[func_id],
        errors: Vec::new(),
    };
    c.run();
    if c.errors.is_empty() {
        Ok(())
    } else {
        Err(c.errors)
    }
}

/// Verifies a whole module.
///
/// # Errors
///
/// Returns the concatenated defects of all functions, plus module-level
/// problems (missing `main`, duplicate names).
pub fn verify_module(module: &Module) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();
    if let Some(m) = module.main {
        if !module.funcs.contains(m) {
            errors.push(VerifyError {
                func: None,
                message: format!("main {m} does not exist"),
            });
        } else if !module.funcs[m].params.is_empty() {
            errors.push(VerifyError {
                func: None,
                message: "main must take no parameters".into(),
            });
        }
    }
    let mut names = std::collections::HashMap::new();
    for (id, f) in module.funcs.iter() {
        if let Some(prev) = names.insert(f.name.as_str(), id) {
            errors.push(VerifyError {
                func: Some(id),
                message: format!("duplicate function name `{}` (also {prev})", f.name),
            });
        }
    }
    for id in module.funcs.ids() {
        if let Err(mut e) = verify_function(module, id) {
            errors.append(&mut e);
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::Block;
    use crate::module::GlobalData;

    fn ok_module() -> Module {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("main");
        b.print(7);
        b.ret(None);
        let id = m.add_func(b.build());
        m.main = Some(id);
        m
    }

    #[test]
    fn accepts_well_formed_module() {
        assert!(verify_module(&ok_module()).is_ok());
    }

    #[test]
    fn rejects_dangling_branch() {
        let mut m = ok_module();
        let f = m.main.unwrap();
        m.funcs[f].blocks[BlockId(0)].term = Terminator::Br(BlockId(42));
        let errs = verify_module(&m).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("missing block")),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_bad_arity_call() {
        let mut m = Module::new();
        let mut cal = FunctionBuilder::new("callee");
        let _p = cal.param("p");
        cal.ret(None);
        let callee = m.add_func(cal.build());
        let mut b = FunctionBuilder::new("main");
        b.call_void(callee, vec![]);
        b.ret(None);
        let id = m.add_func(b.build());
        m.main = Some(id);
        let errs = verify_module(&m).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("passes 0 args")),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_out_of_range_vreg() {
        let mut m = ok_module();
        let f = m.main.unwrap();
        m.funcs[f].blocks[BlockId(0)].insts.push(Inst::Copy {
            dst: Vreg(99),
            src: Operand::Imm(0),
        });
        let errs = verify_module(&m).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("out of range")),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_constant_oob_global_index() {
        let mut m = ok_module();
        let g = m.add_global(GlobalData::array("a", 4));
        let f = m.main.unwrap();
        m.funcs[f].blocks[BlockId(0)].insts.push(Inst::Store {
            src: Operand::Imm(1),
            addr: Address::Global {
                global: g,
                index: Operand::Imm(4),
            },
        });
        let errs = verify_module(&m).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("out of bounds")),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_duplicate_names_and_main_with_params() {
        let mut m = Module::new();
        let mut a = FunctionBuilder::new("f");
        let _x = a.param("x");
        a.ret(None);
        let fid = m.add_func(a.build());
        let mut b = FunctionBuilder::new("f");
        b.ret(None);
        m.add_func(b.build());
        m.main = Some(fid);
        let errs = verify_module(&m).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.message.contains("duplicate function name")),
            "{errs:?}"
        );
        assert!(
            errs.iter().any(|e| e.message.contains("no parameters")),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_unterminated_entry_reference() {
        // A function whose entry id is out of range.
        let mut m = Module::new();
        let mut f = Function::new("weird");
        f.entry = BlockId(3);
        f.blocks.push(Block::new(Terminator::Ret(None)));
        m.add_func(f);
        let errs = verify_module(&m).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("entry block")),
            "{errs:?}"
        );
    }
}
