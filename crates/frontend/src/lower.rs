//! AST → IR lowering with semantic checks.

use std::collections::HashMap;

use ipra_ir::builder::FunctionBuilder;
use ipra_ir::{
    Address, BinOp, FuncId, GlobalData, GlobalId, Inst, Module, Operand, SlotId, UnOp, Vreg,
};

use crate::ast::*;
use crate::error::CompileError;
use crate::token::Pos;

/// Lowers a parsed program to an IR module.
///
/// # Errors
///
/// Returns semantic errors (unknown names, arity mismatches, misuse of
/// arrays or void functions, missing `main`).
pub fn lower(prog: &Program) -> Result<Module, CompileError> {
    let mut module = Module::new();

    // Globals.
    //
    // Determinism: the name tables here are HashMaps read only by keyed
    // lookup; entity ids are assigned in source order by the `prog`
    // iteration, so map iteration order never shapes the module. Their
    // keys borrow the AST's names.
    let mut globals: HashMap<&str, (GlobalId, Ty)> = HashMap::new();
    for g in &prog.globals {
        if globals.contains_key(g.name.as_str()) {
            return Err(CompileError::new(
                g.pos,
                format!("duplicate global `{}`", g.name),
            ));
        }
        let size = match g.ty {
            Ty::Int => 1,
            Ty::Array(n) => n,
            Ty::FnPtr => unreachable!("rejected by parser"),
        };
        let id = module.add_global(GlobalData {
            name: g.name.clone(),
            size,
            init: g.init.clone(),
        });
        globals.insert(&g.name, (id, g.ty));
    }

    // Function signatures.
    let mut funcs: HashMap<&str, (FuncId, usize, bool)> = HashMap::new();
    for f in &prog.funcs {
        if funcs.contains_key(f.name.as_str()) {
            return Err(CompileError::new(
                f.pos,
                format!("duplicate function `{}`", f.name),
            ));
        }
        if globals.contains_key(f.name.as_str()) {
            return Err(CompileError::new(
                f.pos,
                format!("`{}` is already a global", f.name),
            ));
        }
        let id = module.declare_func(f.name.clone());
        funcs.insert(&f.name, (id, f.params.len(), f.returns_value));
    }

    // Bodies.
    for f in &prog.funcs {
        let (fid, _, _) = funcs[f.name.as_str()];
        let mut ctx = FnCtx {
            globals: &globals,
            funcs: &funcs,
            decl: f,
            b: FunctionBuilder::new(f.name.clone()),
            scopes: Vec::new(),
            block_start: 0,
            loop_stack: Vec::new(),
        };
        if f.is_extern {
            ctx.b.set_external_visible();
        }
        // Parameters form the outermost block, below the body's, so a
        // `var` in the body may shadow one.
        for (pname, pty) in &f.params {
            if ctx.declared_in_block(pname) {
                return Err(CompileError::new(
                    f.pos,
                    format!("duplicate parameter `{pname}`"),
                ));
            }
            let v = ctx.b.param(pname.clone());
            ctx.scopes.push((pname, Binding::Scalar(v, *pty)));
        }
        let reachable = ctx.stmts(&f.body)?;
        if reachable {
            if f.returns_value {
                // Falling off the end of a value-returning function yields 0.
                ctx.b.ret(Some(Operand::Imm(0)));
            } else {
                ctx.b.ret(None);
            }
        }
        module.define_func(fid, ctx.b.build());
    }

    match module.func_by_name("main") {
        Some(main) => {
            if !module.funcs[main].params.is_empty() {
                return Err(CompileError::new(
                    Pos { line: 1, col: 1 },
                    "main must take no parameters",
                ));
            }
            module.main = Some(main);
        }
        None => {
            return Err(CompileError::new(
                Pos { line: 1, col: 1 },
                "program has no `main`",
            ));
        }
    }
    Ok(module)
}

#[derive(Clone, Copy)]
enum Binding {
    Scalar(Vreg, Ty),
    Array(SlotId, u32),
}

struct FnCtx<'a> {
    globals: &'a HashMap<&'a str, (GlobalId, Ty)>,
    funcs: &'a HashMap<&'a str, (FuncId, usize, bool)>,
    decl: &'a FuncDecl,
    b: FunctionBuilder,
    /// Every binding in scope, outermost first; names borrow the AST.
    scopes: Vec<(&'a str, Binding)>,
    /// Where the innermost block's bindings start in `scopes`.
    block_start: usize,
    /// (continue target, break target)
    loop_stack: Vec<(ipra_ir::BlockId, ipra_ir::BlockId)>,
}

impl<'a> FnCtx<'a> {
    /// The innermost binding of `name`.
    fn lookup(&self, name: &str) -> Option<Binding> {
        self.scopes
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, b)| b)
    }

    /// Whether the innermost block already binds `name`.
    fn declared_in_block(&self, name: &str) -> bool {
        self.scopes[self.block_start..]
            .iter()
            .any(|(n, _)| *n == name)
    }

    /// Lowers statements; returns whether control can reach the end.
    fn stmts(&mut self, stmts: &'a [Stmt]) -> Result<bool, CompileError> {
        let outer = std::mem::replace(&mut self.block_start, self.scopes.len());
        let mut reachable = true;
        for s in stmts {
            if !reachable {
                // Statically unreachable code after return/break/continue is
                // simply dropped.
                break;
            }
            reachable = self.stmt(s)?;
        }
        self.scopes.truncate(self.block_start);
        self.block_start = outer;
        Ok(reachable)
    }

    fn stmt(&mut self, s: &'a Stmt) -> Result<bool, CompileError> {
        match s {
            Stmt::Var {
                name,
                ty,
                init,
                pos,
            } => {
                if self.declared_in_block(name) {
                    return Err(CompileError::new(
                        *pos,
                        format!("duplicate variable `{name}`"),
                    ));
                }
                let binding = match ty {
                    Ty::Int | Ty::FnPtr => {
                        let v = self.b.var(name.clone());
                        let val = match init {
                            Some(e) => self.expr(e)?,
                            None => Operand::Imm(0),
                        };
                        self.b.copy_to(v, val);
                        Binding::Scalar(v, *ty)
                    }
                    Ty::Array(n) => {
                        let slot = self.b.slot(name.clone(), *n);
                        Binding::Array(slot, *n)
                    }
                };
                self.scopes.push((name, binding));
                Ok(true)
            }
            Stmt::Assign { target, value, pos } => {
                let val = self.expr(value)?;
                match target {
                    LValue::Name(name) => match self.lookup(name) {
                        Some(Binding::Scalar(v, _)) => {
                            self.b.copy_to(v, val);
                            Ok(true)
                        }
                        Some(Binding::Array(..)) => Err(CompileError::new(
                            *pos,
                            format!("cannot assign to array `{name}`"),
                        )),
                        None => match self.globals.get(name.as_str()) {
                            Some(&(g, Ty::Int)) => {
                                self.b.store(val, Address::global_scalar(g));
                                Ok(true)
                            }
                            Some(_) => Err(CompileError::new(
                                *pos,
                                format!("cannot assign to array global `{name}`"),
                            )),
                            None => Err(CompileError::new(
                                *pos,
                                format!("unknown variable `{name}`"),
                            )),
                        },
                    },
                    LValue::Index(name, idx) => {
                        let i = self.expr(idx)?;
                        let addr = self.element_addr(name, i, *pos)?;
                        self.b.store(val, addr);
                        Ok(true)
                    }
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let cv = self.expr(cond)?;
                let then_b = self.b.new_block();
                let else_b = self.b.new_block();
                let join = self.b.new_block();
                self.b.cond_br(cv, then_b, else_b);

                self.b.switch_to(then_b);
                let t_reach = self.stmts(then_body)?;
                if t_reach {
                    self.b.br(join);
                }
                self.b.switch_to(else_b);
                let e_reach = self.stmts(else_body)?;
                if e_reach {
                    self.b.br(join);
                }
                self.b.switch_to(join);
                if !t_reach && !e_reach {
                    // Dead join: terminate it and report unreachable.
                    self.terminate_dead();
                    Ok(false)
                } else {
                    Ok(true)
                }
            }
            Stmt::While { cond, body } => {
                let header = self.b.new_block();
                let body_b = self.b.new_block();
                let exit = self.b.new_block();
                self.b.br(header);
                self.b.switch_to(header);
                let cv = self.expr(cond)?;
                self.b.cond_br(cv, body_b, exit);
                self.b.switch_to(body_b);
                self.loop_stack.push((header, exit));
                let reach = self.stmts(body)?;
                self.loop_stack.pop();
                if reach {
                    self.b.br(header);
                }
                self.b.switch_to(exit);
                Ok(true)
            }
            Stmt::Return(value, pos) => {
                match (value, self.decl.returns_value) {
                    (Some(e), true) => {
                        let v = self.expr(e)?;
                        self.b.ret(Some(v));
                    }
                    (None, false) => self.b.ret(None),
                    (Some(_), false) => {
                        return Err(CompileError::new(
                            *pos,
                            format!("`{}` returns no value", self.decl.name),
                        ))
                    }
                    (None, true) => {
                        return Err(CompileError::new(
                            *pos,
                            format!("`{}` must return a value", self.decl.name),
                        ))
                    }
                }
                Ok(false)
            }
            Stmt::Print(e) => {
                let v = self.expr(e)?;
                self.b.print(v);
                Ok(true)
            }
            Stmt::Break(pos) => match self.loop_stack.last() {
                Some(&(_, exit)) => {
                    self.b.br(exit);
                    // br() may have moved the cursor into `exit`; lowering
                    // continues in a fresh dead block instead.
                    let dead = self.b.new_block();
                    self.b.switch_to(dead);
                    self.terminate_dead();
                    Ok(false)
                }
                None => Err(CompileError::new(*pos, "break outside of a loop")),
            },
            Stmt::Continue(pos) => match self.loop_stack.last() {
                Some(&(header, _)) => {
                    self.b.br(header);
                    let dead = self.b.new_block();
                    self.b.switch_to(dead);
                    self.terminate_dead();
                    Ok(false)
                }
                None => Err(CompileError::new(*pos, "continue outside of a loop")),
            },
            Stmt::ExprStmt(e) => {
                match e {
                    Expr::Call { name, args, pos } => {
                        self.call(name, args, *pos, false)?;
                    }
                    other => {
                        let _ = self.expr(other)?;
                    }
                }
                Ok(true)
            }
        }
    }

    /// Terminates the (dead) current block consistently with the function's
    /// return kind.
    fn terminate_dead(&mut self) {
        if self.decl.returns_value {
            self.b.ret(Some(Operand::Imm(0)));
        } else {
            self.b.ret(None);
        }
    }

    fn element_addr(
        &mut self,
        name: &str,
        index: Operand,
        pos: Pos,
    ) -> Result<Address, CompileError> {
        // Constant indexes are bounds-checked at compile time.
        let check = |size: u32| -> Result<(), CompileError> {
            if let Operand::Imm(i) = index {
                if i < 0 || i >= size as i64 {
                    return Err(CompileError::new(
                        pos,
                        format!("index {i} out of bounds for `{name}` (size {size})"),
                    ));
                }
            }
            Ok(())
        };
        match self.lookup(name) {
            Some(Binding::Array(slot, size)) => {
                check(size)?;
                Ok(Address::Stack { slot, index })
            }
            Some(Binding::Scalar(..)) => {
                Err(CompileError::new(pos, format!("`{name}` is not an array")))
            }
            None => match self.globals.get(name) {
                Some(&(g, Ty::Array(size))) => {
                    check(size)?;
                    Ok(Address::Global { global: g, index })
                }
                Some(_) => Err(CompileError::new(
                    pos,
                    format!("global `{name}` is not an array"),
                )),
                None => Err(CompileError::new(pos, format!("unknown array `{name}`"))),
            },
        }
    }

    fn call(
        &mut self,
        name: &str,
        args: &[Expr],
        pos: Pos,
        want_value: bool,
    ) -> Result<Option<Vreg>, CompileError> {
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.expr(a)?);
        }
        // A local scalar shadows a function name: indirect call. Only
        // fnptr-typed variables may be called.
        if let Some(Binding::Scalar(v, ty)) = self.lookup(name) {
            if ty != Ty::FnPtr {
                return Err(CompileError::new(
                    pos,
                    format!("`{name}` has type int and cannot be called"),
                ));
            }
            let dst = if want_value {
                Some(self.b.vreg())
            } else {
                None
            };
            self.b.emit(Inst::Call {
                callee: ipra_ir::Callee::Indirect(Operand::Reg(v)),
                args: vals,
                dst,
            });
            return Ok(dst);
        }
        match self.funcs.get(name) {
            Some(&(fid, arity, returns_value)) => {
                if arity != args.len() {
                    return Err(CompileError::new(
                        pos,
                        format!("`{name}` takes {arity} arguments, got {}", args.len()),
                    ));
                }
                if want_value && !returns_value {
                    return Err(CompileError::new(
                        pos,
                        format!("void function `{name}` used in an expression"),
                    ));
                }
                if want_value {
                    Ok(Some(self.b.call(fid, vals)))
                } else {
                    self.b.call_void(fid, vals);
                    Ok(None)
                }
            }
            None => Err(CompileError::new(pos, format!("unknown function `{name}`"))),
        }
    }

    fn expr(&mut self, e: &Expr) -> Result<Operand, CompileError> {
        match e {
            Expr::Int(v, _) => Ok(Operand::Imm(*v)),
            Expr::Name(name, pos) => match self.lookup(name) {
                Some(Binding::Scalar(v, _)) => Ok(Operand::Reg(v)),
                Some(Binding::Array(..)) => Err(CompileError::new(
                    *pos,
                    format!("array `{name}` used as a value"),
                )),
                None => match self.globals.get(name.as_str()) {
                    Some(&(g, Ty::Int)) => Ok(Operand::Reg(self.b.load(Address::global_scalar(g)))),
                    Some(_) => Err(CompileError::new(
                        *pos,
                        format!("array global `{name}` used as a value"),
                    )),
                    None => Err(CompileError::new(*pos, format!("unknown name `{name}`"))),
                },
            },
            Expr::Index(name, idx, pos) => {
                let i = self.expr(idx)?;
                let addr = self.element_addr(name, i, *pos)?;
                Ok(Operand::Reg(self.b.load(addr)))
            }
            Expr::FuncAddr(name, pos) => match self.funcs.get(name.as_str()) {
                Some(&(fid, _, _)) => Ok(Operand::Reg(self.b.func_addr(fid))),
                None => Err(CompileError::new(
                    *pos,
                    format!("unknown function `{name}`"),
                )),
            },
            Expr::Call { name, args, pos } => {
                let v = self.call(name, args, *pos, true)?;
                Ok(Operand::Reg(v.expect("value call returns a vreg")))
            }
            Expr::Neg(inner, _) => {
                let v = self.expr(inner)?;
                Ok(Operand::Reg(self.b.un(UnOp::Neg, v)))
            }
            Expr::Not(inner, _) => {
                let v = self.expr(inner)?;
                Ok(Operand::Reg(self.b.bin(BinOp::Eq, v, 0)))
            }
            Expr::Bin(op, lhs, rhs, _) => match op {
                BinAst::And | BinAst::Or => self.short_circuit(*op, lhs, rhs),
                _ => {
                    let l = self.expr(lhs)?;
                    let r = self.expr(rhs)?;
                    let irop = match op {
                        BinAst::Add => BinOp::Add,
                        BinAst::Sub => BinOp::Sub,
                        BinAst::Mul => BinOp::Mul,
                        BinAst::Div => BinOp::Div,
                        BinAst::Rem => BinOp::Rem,
                        BinAst::Eq => BinOp::Eq,
                        BinAst::Ne => BinOp::Ne,
                        BinAst::Lt => BinOp::Lt,
                        BinAst::Le => BinOp::Le,
                        BinAst::Gt => BinOp::Gt,
                        BinAst::Ge => BinOp::Ge,
                        BinAst::BitAnd => BinOp::And,
                        BinAst::BitOr => BinOp::Or,
                        BinAst::BitXor => BinOp::Xor,
                        BinAst::Shl => BinOp::Shl,
                        BinAst::Shr => BinOp::Shr,
                        BinAst::And | BinAst::Or => unreachable!(),
                    };
                    Ok(Operand::Reg(self.b.bin(irop, l, r)))
                }
            },
        }
    }

    /// `&&` and `||` with short-circuit evaluation.
    fn short_circuit(
        &mut self,
        op: BinAst,
        lhs: &Expr,
        rhs: &Expr,
    ) -> Result<Operand, CompileError> {
        let result = self.b.vreg();
        let lv = self.expr(lhs)?;
        let rhs_b = self.b.new_block();
        let join = self.b.new_block();
        match op {
            BinAst::And => {
                self.b.copy_to(result, 0);
                self.b.cond_br(lv, rhs_b, join);
            }
            BinAst::Or => {
                self.b.copy_to(result, 1);
                self.b.cond_br(lv, join, rhs_b);
            }
            _ => unreachable!(),
        }
        self.b.switch_to(rhs_b);
        let rv = self.expr(rhs)?;
        let norm = self.b.bin(BinOp::Ne, rv, 0);
        self.b.copy_to(result, norm);
        self.b.br(join);
        // br() moves the cursor to `join` if it is still open; make sure.
        if self.b.current_block() != join {
            self.b.switch_to(join);
        }
        Ok(Operand::Reg(result))
    }
}
