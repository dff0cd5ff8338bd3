//! Recursive-descent parser for the Mini language.

use crate::ast::*;
use crate::error::CompileError;
use crate::lexer::lex;
use crate::token::{Pos, Spanned, Tok};

/// Parses a source file into an AST.
///
/// # Errors
///
/// Returns the first syntax error encountered.
pub fn parse(source: &str) -> Result<Program, CompileError> {
    let toks = lex(source)?;
    let mut p = Parser { toks, i: 0 };
    p.program()
}

struct Parser {
    toks: Vec<Spanned>,
    i: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.i].tok
    }

    fn pos(&self) -> Pos {
        self.toks[self.i].pos
    }

    /// Moves the current token out of the vector and advances. Nothing
    /// reads a token behind the cursor, and the final `Eof` is only ever
    /// replaced by itself, so no token is copied.
    fn next(&mut self) -> Tok {
        let t = std::mem::replace(&mut self.toks[self.i].tok, Tok::Eof);
        if self.i + 1 < self.toks.len() {
            self.i += 1;
        }
        t
    }

    fn eat(&mut self, want: Tok) -> Result<(), CompileError> {
        if *self.peek() == want {
            self.next();
            Ok(())
        } else {
            Err(CompileError::new(
                self.pos(),
                format!("expected {want}, found {}", self.peek()),
            ))
        }
    }

    fn ident(&mut self) -> Result<String, CompileError> {
        match self.peek() {
            Tok::Ident(_) => Ok(self.take_ident()),
            other => Err(CompileError::new(
                self.pos(),
                format!("expected identifier, found {other}"),
            )),
        }
    }

    /// Moves out the identifier under the cursor, which the caller has
    /// peeked.
    fn take_ident(&mut self) -> String {
        match self.next() {
            Tok::Ident(n) => n,
            other => unreachable!("peeked an identifier, took {other}"),
        }
    }

    fn int_lit(&mut self) -> Result<i64, CompileError> {
        // Allow a leading minus in constant contexts.
        let neg = if *self.peek() == Tok::Minus {
            self.next();
            true
        } else {
            false
        };
        match self.peek() {
            &Tok::Int(v) => {
                self.next();
                Ok(if neg { -v } else { v })
            }
            other => Err(CompileError::new(
                self.pos(),
                format!("expected integer, found {other}"),
            )),
        }
    }

    fn program(&mut self) -> Result<Program, CompileError> {
        let mut prog = Program::default();
        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::Global => prog.globals.push(self.global()?),
                Tok::Fn | Tok::Extern => prog.funcs.push(self.func()?),
                other => {
                    return Err(CompileError::new(
                        self.pos(),
                        format!("expected `global`, `fn` or `extern`, found {other}"),
                    ))
                }
            }
        }
        Ok(prog)
    }

    fn ty(&mut self) -> Result<Ty, CompileError> {
        match self.peek() {
            Tok::IntTy => {
                self.next();
                Ok(Ty::Int)
            }
            Tok::FnPtr => {
                self.next();
                Ok(Ty::FnPtr)
            }
            Tok::LBracket => {
                self.next();
                self.eat(Tok::IntTy)?;
                self.eat(Tok::Semi)?;
                let n = self.int_lit()?;
                if n <= 0 || n > 1 << 24 {
                    return Err(CompileError::new(
                        self.pos(),
                        format!("bad array length {n}"),
                    ));
                }
                self.eat(Tok::RBracket)?;
                Ok(Ty::Array(n as u32))
            }
            other => Err(CompileError::new(
                self.pos(),
                format!("expected a type, found {other}"),
            )),
        }
    }

    fn global(&mut self) -> Result<GlobalDecl, CompileError> {
        let pos = self.pos();
        self.eat(Tok::Global)?;
        let name = self.ident()?;
        self.eat(Tok::Colon)?;
        let ty = self.ty()?;
        if ty == Ty::FnPtr {
            return Err(CompileError::new(pos, "globals cannot have type fnptr"));
        }
        let mut init = Vec::new();
        if *self.peek() == Tok::Assign {
            self.next();
            match ty {
                Ty::Int => init.push(self.int_lit()?),
                Ty::Array(_) => {
                    self.eat(Tok::LBracket)?;
                    if *self.peek() != Tok::RBracket {
                        init.push(self.int_lit()?);
                        while *self.peek() == Tok::Comma {
                            self.next();
                            init.push(self.int_lit()?);
                        }
                    }
                    self.eat(Tok::RBracket)?;
                }
                Ty::FnPtr => unreachable!(),
            }
        }
        self.eat(Tok::Semi)?;
        Ok(GlobalDecl {
            name,
            ty,
            init,
            pos,
        })
    }

    fn func(&mut self) -> Result<FuncDecl, CompileError> {
        let pos = self.pos();
        let is_extern = if *self.peek() == Tok::Extern {
            self.next();
            true
        } else {
            false
        };
        self.eat(Tok::Fn)?;
        let name = self.ident()?;
        self.eat(Tok::LParen)?;
        let mut params = Vec::new();
        if *self.peek() != Tok::RParen {
            loop {
                let pname = self.ident()?;
                self.eat(Tok::Colon)?;
                let pty = self.ty()?;
                if matches!(pty, Ty::Array(_)) {
                    return Err(CompileError::new(pos, "array parameters are not supported"));
                }
                params.push((pname, pty));
                if *self.peek() == Tok::Comma {
                    self.next();
                } else {
                    break;
                }
            }
        }
        self.eat(Tok::RParen)?;
        let returns_value = if *self.peek() == Tok::Arrow {
            self.next();
            self.eat(Tok::IntTy)?;
            true
        } else {
            false
        };
        let body = self.block()?;
        Ok(FuncDecl {
            name,
            params,
            returns_value,
            is_extern,
            body,
            pos,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        self.eat(Tok::LBrace)?;
        let mut stmts = Vec::new();
        while *self.peek() != Tok::RBrace {
            if *self.peek() == Tok::Eof {
                return Err(CompileError::new(
                    self.pos(),
                    "unexpected end of input in block",
                ));
            }
            stmts.push(self.stmt()?);
        }
        self.eat(Tok::RBrace)?;
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        let pos = self.pos();
        match self.peek() {
            Tok::Var => {
                self.next();
                let name = self.ident()?;
                self.eat(Tok::Colon)?;
                let ty = self.ty()?;
                let init = if *self.peek() == Tok::Assign {
                    if matches!(ty, Ty::Array(_)) {
                        return Err(CompileError::new(
                            pos,
                            "array variables cannot be initialized",
                        ));
                    }
                    self.next();
                    Some(self.expr()?)
                } else {
                    None
                };
                self.eat(Tok::Semi)?;
                Ok(Stmt::Var {
                    name,
                    ty,
                    init,
                    pos,
                })
            }
            Tok::If => {
                self.next();
                let cond = self.expr()?;
                let then_body = self.block()?;
                let else_body = if *self.peek() == Tok::Else {
                    self.next();
                    if *self.peek() == Tok::If {
                        vec![self.stmt()?]
                    } else {
                        self.block()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                })
            }
            Tok::While => {
                self.next();
                let cond = self.expr()?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body })
            }
            Tok::Return => {
                self.next();
                let value = if *self.peek() != Tok::Semi {
                    Some(self.expr()?)
                } else {
                    None
                };
                self.eat(Tok::Semi)?;
                Ok(Stmt::Return(value, pos))
            }
            Tok::Print => {
                self.next();
                self.eat(Tok::LParen)?;
                let e = self.expr()?;
                self.eat(Tok::RParen)?;
                self.eat(Tok::Semi)?;
                Ok(Stmt::Print(e))
            }
            Tok::Break => {
                self.next();
                self.eat(Tok::Semi)?;
                Ok(Stmt::Break(pos))
            }
            Tok::Continue => {
                self.next();
                self.eat(Tok::Semi)?;
                Ok(Stmt::Continue(pos))
            }
            Tok::Ident(_) => {
                // assignment or expression statement.
                let name = self.take_ident();
                match self.peek() {
                    Tok::Assign => {
                        self.next();
                        let value = self.expr()?;
                        self.eat(Tok::Semi)?;
                        Ok(Stmt::Assign {
                            target: LValue::Name(name),
                            value,
                            pos,
                        })
                    }
                    Tok::LBracket => {
                        self.next();
                        let idx = self.expr()?;
                        self.eat(Tok::RBracket)?;
                        if *self.peek() == Tok::Assign {
                            self.next();
                            let value = self.expr()?;
                            self.eat(Tok::Semi)?;
                            Ok(Stmt::Assign {
                                target: LValue::Index(name, Box::new(idx)),
                                value,
                                pos,
                            })
                        } else {
                            Err(CompileError::new(
                                self.pos(),
                                "array element expression cannot stand alone as a statement",
                            ))
                        }
                    }
                    Tok::LParen => {
                        // call statement.
                        self.next();
                        let args = self.call_args()?;
                        self.eat(Tok::Semi)?;
                        Ok(Stmt::ExprStmt(Expr::Call { name, args, pos }))
                    }
                    other => Err(CompileError::new(
                        self.pos(),
                        format!("expected `=`, `[` or `(` after identifier, found {other}"),
                    )),
                }
            }
            other => Err(CompileError::new(
                pos,
                format!("unexpected token {other} in statement"),
            )),
        }
    }

    fn call_args(&mut self) -> Result<Vec<Expr>, CompileError> {
        let mut args = Vec::new();
        if *self.peek() != Tok::RParen {
            args.push(self.expr()?);
            while *self.peek() == Tok::Comma {
                self.next();
                args.push(self.expr()?);
            }
        }
        self.eat(Tok::RParen)?;
        Ok(args)
    }

    fn expr(&mut self) -> Result<Expr, CompileError> {
        self.bin_expr(0)
    }

    /// Precedence climbing. Levels (low to high):
    /// `||`; `&&`; `== !=`; `< <= > >=`; `|`; `^`; `&`; `<< >>`; `+ -`;
    /// `* / %`.
    fn bin_expr(&mut self, min_level: u8) -> Result<Expr, CompileError> {
        let mut lhs = self.unary()?;
        loop {
            let (op, level) = match self.peek() {
                Tok::OrOr => (BinAst::Or, 0),
                Tok::AndAnd => (BinAst::And, 1),
                Tok::EqEq => (BinAst::Eq, 2),
                Tok::NotEq => (BinAst::Ne, 2),
                Tok::Lt => (BinAst::Lt, 3),
                Tok::Le => (BinAst::Le, 3),
                Tok::Gt => (BinAst::Gt, 3),
                Tok::Ge => (BinAst::Ge, 3),
                Tok::Pipe => (BinAst::BitOr, 4),
                Tok::Caret => (BinAst::BitXor, 5),
                Tok::Amp => (BinAst::BitAnd, 6),
                Tok::Shl => (BinAst::Shl, 7),
                Tok::Shr => (BinAst::Shr, 7),
                Tok::Plus => (BinAst::Add, 8),
                Tok::Minus => (BinAst::Sub, 8),
                Tok::Star => (BinAst::Mul, 9),
                Tok::Slash => (BinAst::Div, 9),
                Tok::Percent => (BinAst::Rem, 9),
                _ => break,
            };
            if level < min_level {
                break;
            }
            let pos = self.pos();
            self.next();
            let rhs = self.bin_expr(level + 1)?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs), pos);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, CompileError> {
        let pos = self.pos();
        match self.peek() {
            Tok::Minus => {
                self.next();
                Ok(Expr::Neg(Box::new(self.unary()?), pos))
            }
            Tok::Not => {
                self.next();
                Ok(Expr::Not(Box::new(self.unary()?), pos))
            }
            Tok::Amp => {
                self.next();
                let name = self.ident()?;
                Ok(Expr::FuncAddr(name, pos))
            }
            _ => self.primary(),
        }
    }

    fn primary(&mut self) -> Result<Expr, CompileError> {
        let pos = self.pos();
        match self.peek() {
            &Tok::Int(v) => {
                self.next();
                Ok(Expr::Int(v, pos))
            }
            Tok::LParen => {
                self.next();
                let e = self.expr()?;
                self.eat(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(_) => {
                let name = self.take_ident();
                match self.peek() {
                    Tok::LParen => {
                        self.next();
                        let args = self.call_args()?;
                        Ok(Expr::Call { name, args, pos })
                    }
                    Tok::LBracket => {
                        self.next();
                        let idx = self.expr()?;
                        self.eat(Tok::RBracket)?;
                        Ok(Expr::Index(name, Box::new(idx), pos))
                    }
                    _ => Ok(Expr::Name(name, pos)),
                }
            }
            other => Err(CompileError::new(
                pos,
                format!("unexpected token {other} in expression"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_function_with_control_flow() {
        let src = r#"
            global acc: int;
            global tab: [int; 8] = [1, 2, 3];
            fn work(x: int) -> int {
                var t: int = x * 2;
                if t > 4 && x != 0 { t = t - 1; } else { t = 0; }
                while t > 0 { t = t - 1; acc = acc + 1; }
                return t;
            }
            fn main() {
                print(work(5));
            }
        "#;
        let prog = parse(src).unwrap();
        assert_eq!(prog.globals.len(), 2);
        assert_eq!(prog.globals[1].init, vec![1, 2, 3]);
        assert_eq!(prog.funcs.len(), 2);
        assert_eq!(prog.funcs[0].name, "work");
        assert!(prog.funcs[0].returns_value);
        assert!(!prog.funcs[1].returns_value);
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let prog = parse("fn f() -> int { return 1 + 2 * 3; }").unwrap();
        let Stmt::Return(Some(Expr::Bin(BinAst::Add, _, rhs, _)), _) = &prog.funcs[0].body[0]
        else {
            panic!("expected return of an Add");
        };
        assert!(matches!(**rhs, Expr::Bin(BinAst::Mul, _, _, _)));
    }

    #[test]
    fn parses_fnptr_and_indirect_call() {
        let src = r#"
            fn id(x: int) -> int { return x; }
            fn main() {
                var p: fnptr = &id;
                print(p(7));
            }
        "#;
        let prog = parse(src).unwrap();
        assert!(matches!(
            prog.funcs[1].body[0],
            Stmt::Var {
                ty: Ty::FnPtr,
                init: Some(Expr::FuncAddr(..)),
                ..
            }
        ));
    }

    #[test]
    fn parses_else_if_chain() {
        let src = "fn f(x: int) -> int { if x > 2 { return 2; } else if x > 1 { return 1; } else { return 0; } }";
        let prog = parse(src).unwrap();
        let Stmt::If { else_body, .. } = &prog.funcs[0].body[0] else {
            panic!()
        };
        assert!(matches!(else_body[0], Stmt::If { .. }));
    }

    #[test]
    fn extern_flag_recorded() {
        let prog = parse("extern fn lib() { }").unwrap();
        assert!(prog.funcs[0].is_extern);
    }

    #[test]
    fn error_mentions_position() {
        let err = parse("fn f() {\n  var = 3;\n}").unwrap_err();
        assert_eq!(err.pos.line, 2);
        assert!(err.message.contains("expected identifier"), "{err}");
    }

    #[test]
    fn rejects_array_params() {
        assert!(parse("fn f(a: [int; 3]) { }").is_err());
    }
}
