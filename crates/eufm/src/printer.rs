//! Rendering of EUFM expressions as s-expressions (for debugging and goldens).

use crate::context::Context;
use crate::node::{Formula, FormulaId, Term, TermId};
use std::fmt::Write as _;

/// Renders a term as an s-expression.
pub fn term_to_string(ctx: &Context, id: TermId) -> String {
    let mut out = String::new();
    write_term(ctx, id, &mut out, 0);
    out
}

/// Renders a formula as an s-expression.
pub fn formula_to_string(ctx: &Context, id: FormulaId) -> String {
    let mut out = String::new();
    write_formula(ctx, id, &mut out, 0);
    out
}

const MAX_DEPTH: usize = 200;

fn write_term(ctx: &Context, id: TermId, out: &mut String, depth: usize) {
    if depth > MAX_DEPTH {
        let _ = write!(out, "{id}");
        return;
    }
    match ctx.term(id) {
        Term::Var(sym) => {
            let _ = write!(out, "{}", ctx.symbol_name(*sym));
        }
        Term::Uf(sym, args) => {
            let _ = write!(out, "({}", ctx.symbol_name(*sym));
            for a in args {
                out.push(' ');
                write_term(ctx, *a, out, depth + 1);
            }
            out.push(')');
        }
        Term::Ite(c, a, b) => {
            out.push_str("(ite ");
            write_formula(ctx, *c, out, depth + 1);
            out.push(' ');
            write_term(ctx, *a, out, depth + 1);
            out.push(' ');
            write_term(ctx, *b, out, depth + 1);
            out.push(')');
        }
        Term::Read(m, a) => {
            out.push_str("(read ");
            write_term(ctx, *m, out, depth + 1);
            out.push(' ');
            write_term(ctx, *a, out, depth + 1);
            out.push(')');
        }
        Term::Write(m, a, d) => {
            out.push_str("(write ");
            write_term(ctx, *m, out, depth + 1);
            out.push(' ');
            write_term(ctx, *a, out, depth + 1);
            out.push(' ');
            write_term(ctx, *d, out, depth + 1);
            out.push(')');
        }
    }
}

fn write_formula(ctx: &Context, id: FormulaId, out: &mut String, depth: usize) {
    if depth > MAX_DEPTH {
        let _ = write!(out, "{id}");
        return;
    }
    match ctx.formula(id) {
        Formula::True => out.push_str("true"),
        Formula::False => out.push_str("false"),
        Formula::Var(sym) => {
            let _ = write!(out, "{}", ctx.symbol_name(*sym));
        }
        Formula::Up(sym, args) => {
            let _ = write!(out, "({}", ctx.symbol_name(*sym));
            for a in args {
                out.push(' ');
                write_term(ctx, *a, out, depth + 1);
            }
            out.push(')');
        }
        Formula::Not(a) => {
            out.push_str("(not ");
            write_formula(ctx, *a, out, depth + 1);
            out.push(')');
        }
        Formula::And(a, b) => {
            out.push_str("(and ");
            write_formula(ctx, *a, out, depth + 1);
            out.push(' ');
            write_formula(ctx, *b, out, depth + 1);
            out.push(')');
        }
        Formula::Or(a, b) => {
            out.push_str("(or ");
            write_formula(ctx, *a, out, depth + 1);
            out.push(' ');
            write_formula(ctx, *b, out, depth + 1);
            out.push(')');
        }
        Formula::Ite(c, a, b) => {
            out.push_str("(ite ");
            write_formula(ctx, *c, out, depth + 1);
            out.push(' ');
            write_formula(ctx, *a, out, depth + 1);
            out.push(' ');
            write_formula(ctx, *b, out, depth + 1);
            out.push(')');
        }
        Formula::Eq(a, b) => {
            out.push_str("(= ");
            write_term(ctx, *a, out, depth + 1);
            out.push(' ');
            write_term(ctx, *b, out, depth + 1);
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_expression() {
        let mut ctx = Context::new();
        let a = ctx.term_var("a");
        let b = ctx.term_var("b");
        let fa = ctx.uf("f", &[a, b]);
        let eq = ctx.eq(fa, a);
        let neg = ctx.not(eq);
        let s = formula_to_string(&ctx, neg);
        // `eq` orders its operands by node id, so the variable comes first.
        assert_eq!(s, "(not (= a (f a b)))");
    }

    #[test]
    fn renders_memory_and_ite() {
        let mut ctx = Context::new();
        let mem = ctx.term_var("rf");
        let addr = ctx.term_var("addr");
        let data = ctx.term_var("data");
        let we = ctx.prop_var("we");
        let w = ctx.write(mem, addr, data);
        let next = ctx.ite_term(we, w, mem);
        let r = ctx.read(next, addr);
        let s = term_to_string(&ctx, r);
        assert_eq!(s, "(read (ite we (write rf addr data) rf) addr)");
    }

    #[test]
    fn renders_constants() {
        let ctx = Context::new();
        assert_eq!(formula_to_string(&ctx, ctx.true_id()), "true");
        assert_eq!(formula_to_string(&ctx, ctx.false_id()), "false");
    }
}
