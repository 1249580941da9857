//! The three-valued evaluator and matchmaking entry points.
//!
//! Semantics follow classic ClassAds:
//!
//! * Missing attributes evaluate to `UNDEFINED`; type mismatches to `ERROR`.
//! * `ERROR` dominates `UNDEFINED` in strict operators.
//! * `&&` and `||` use three-valued logic with the useful absorption rules:
//!   `FALSE && UNDEFINED == FALSE`, `TRUE || UNDEFINED == TRUE`.
//! * `=?=` / `=!=` (meta comparison) always yield a boolean.
//! * Unqualified attribute references resolve in the evaluating ad first
//!   and then in the target ad; `MY.` / `TARGET.` restrict the scope.
//! * Reference cycles yield `ERROR` via a depth limit rather than hanging.

use crate::ad::ClassAd;
use crate::expr::{BinOp, Expr, Scope, UnOp};
use crate::funcs;
use crate::value::Value;
use std::cmp::Ordering;

/// Maximum attribute-dereference depth before declaring a cycle.
const MAX_DEPTH: u32 = 64;

/// An evaluation context: the evaluating ad plus (optionally) the candidate.
#[derive(Clone, Copy)]
pub struct EvalCtx<'a> {
    my: &'a ClassAd,
    target: Option<&'a ClassAd>,
}

impl<'a> EvalCtx<'a> {
    /// Context for evaluating `my` against `target`.
    pub fn matching(my: &'a ClassAd, target: &'a ClassAd) -> EvalCtx<'a> {
        EvalCtx {
            my,
            target: Some(target),
        }
    }

    /// Context with no target ad (plain attribute evaluation).
    pub fn solo(my: &'a ClassAd) -> EvalCtx<'a> {
        EvalCtx { my, target: None }
    }

    /// Evaluate an expression.
    pub fn eval(&self, expr: &Expr) -> Value {
        self.eval_depth(expr, 0)
    }

    /// Evaluate the named attribute of `my` (with scope-chain lookup rules).
    pub fn attr(&self, name: &str) -> Value {
        self.lookup(Scope::Unqualified, name, 0)
    }

    fn lookup(&self, scope: Scope, name: &str, depth: u32) -> Value {
        if depth >= MAX_DEPTH {
            return Value::Error;
        }
        let expr = match scope {
            Scope::My => self.my.get(name),
            Scope::Target => self.target.and_then(|t| t.get(name)),
            Scope::Unqualified => self
                .my
                .get(name)
                .or_else(|| self.target.and_then(|t| t.get(name))),
        };
        match expr {
            // Attribute expressions found in the *target* ad must be
            // evaluated with the roles swapped: inside that ad, MY is the
            // target and vice versa.
            Some(e) => {
                let owned_by_my = match scope {
                    Scope::My => true,
                    Scope::Target => false,
                    Scope::Unqualified => self.my.get(name).is_some(),
                };
                if owned_by_my {
                    self.eval_depth(e, depth + 1)
                } else {
                    let swapped = EvalCtx {
                        my: self.target.expect("target present when found there"),
                        target: Some(self.my),
                    };
                    swapped.eval_depth(e, depth + 1)
                }
            }
            None => Value::Undefined,
        }
    }

    fn eval_depth(&self, expr: &Expr, depth: u32) -> Value {
        if depth >= MAX_DEPTH {
            return Value::Error;
        }
        match expr {
            Expr::Lit(v) => v.clone(),
            Expr::Attr(scope, name) => self.lookup(*scope, name, depth),
            Expr::Unary(op, e) => {
                let v = self.eval_depth(e, depth + 1);
                eval_unary(*op, v)
            }
            Expr::Binary(op, a, b) => self.eval_binary(*op, a, b, depth),
            Expr::Cond(c, a, b) => match self.eval_depth(c, depth + 1) {
                Value::Bool(true) => self.eval_depth(a, depth + 1),
                Value::Bool(false) => self.eval_depth(b, depth + 1),
                Value::Undefined => Value::Undefined,
                _ => Value::Error,
            },
            Expr::Call(name, args) => {
                let vals: Vec<Value> = args.iter().map(|a| self.eval_depth(a, depth + 1)).collect();
                funcs::call(name, &vals)
            }
            Expr::List(items) => Value::List(
                items
                    .iter()
                    .map(|e| self.eval_depth(e, depth + 1))
                    .collect(),
            ),
        }
    }

    fn eval_binary(&self, op: BinOp, a: &Expr, b: &Expr, depth: u32) -> Value {
        // && and || need lazy, three-valued handling.
        match op {
            BinOp::And => {
                let va = self.eval_depth(a, depth + 1);
                if va == Value::Bool(false) {
                    return Value::Bool(false);
                }
                let vb = self.eval_depth(b, depth + 1);
                return three_valued_and(va, vb);
            }
            BinOp::Or => {
                let va = self.eval_depth(a, depth + 1);
                if va == Value::Bool(true) {
                    return Value::Bool(true);
                }
                let vb = self.eval_depth(b, depth + 1);
                return three_valued_or(va, vb);
            }
            _ => {}
        }
        let va = self.eval_depth(a, depth + 1);
        let vb = self.eval_depth(b, depth + 1);
        match op {
            BinOp::MetaEq => Value::Bool(va.strict_eq(&vb)),
            BinOp::MetaNe => Value::Bool(!va.strict_eq(&vb)),
            _ => {
                // Everything else propagates exceptional values:
                // ERROR dominates UNDEFINED.
                if va.is_error() || vb.is_error() {
                    return Value::Error;
                }
                if va.is_undefined() || vb.is_undefined() {
                    return Value::Undefined;
                }
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                        eval_arith(op, &va, &vb)
                    }
                    BinOp::Eq => va.loose_eq(&vb).map(Value::Bool).unwrap_or(Value::Error),
                    BinOp::Ne => va
                        .loose_eq(&vb)
                        .map(|e| Value::Bool(!e))
                        .unwrap_or(Value::Error),
                    BinOp::Lt => cmp_to_bool(va.loose_cmp(&vb), |o| o == Ordering::Less),
                    BinOp::Le => cmp_to_bool(va.loose_cmp(&vb), |o| o != Ordering::Greater),
                    BinOp::Gt => cmp_to_bool(va.loose_cmp(&vb), |o| o == Ordering::Greater),
                    BinOp::Ge => cmp_to_bool(va.loose_cmp(&vb), |o| o != Ordering::Less),
                    BinOp::And | BinOp::Or | BinOp::MetaEq | BinOp::MetaNe => unreachable!(),
                }
            }
        }
    }
}

fn cmp_to_bool(ord: Option<Ordering>, f: impl FnOnce(Ordering) -> bool) -> Value {
    match ord {
        Some(o) => Value::Bool(f(o)),
        None => Value::Error,
    }
}

fn eval_unary(op: UnOp, v: Value) -> Value {
    if v.is_error() {
        return Value::Error;
    }
    if v.is_undefined() {
        return Value::Undefined;
    }
    match op {
        UnOp::Not => match v {
            Value::Bool(b) => Value::Bool(!b),
            _ => Value::Error,
        },
        UnOp::Neg => match v {
            Value::Int(i) => Value::Int(-i),
            Value::Real(r) => Value::Real(-r),
            _ => Value::Error,
        },
        UnOp::Plus => match v {
            Value::Int(_) | Value::Real(_) => v,
            _ => Value::Error,
        },
    }
}

fn eval_arith(op: BinOp, a: &Value, b: &Value) -> Value {
    // Integer op integer stays integer; anything with a real becomes real.
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => {
            let (x, y) = (*x, *y);
            match op {
                BinOp::Add => Value::Int(x.wrapping_add(y)),
                BinOp::Sub => Value::Int(x.wrapping_sub(y)),
                BinOp::Mul => Value::Int(x.wrapping_mul(y)),
                BinOp::Div => {
                    if y == 0 {
                        Value::Error
                    } else {
                        Value::Int(x.wrapping_div(y))
                    }
                }
                BinOp::Mod => {
                    if y == 0 {
                        Value::Error
                    } else {
                        Value::Int(x.wrapping_rem(y))
                    }
                }
                _ => unreachable!(),
            }
        }
        _ => match (a.as_number(), b.as_number()) {
            (Some(x), Some(y)) => match op {
                BinOp::Add => Value::Real(x + y),
                BinOp::Sub => Value::Real(x - y),
                BinOp::Mul => Value::Real(x * y),
                BinOp::Div => {
                    if y == 0.0 {
                        Value::Error
                    } else {
                        Value::Real(x / y)
                    }
                }
                BinOp::Mod => {
                    if y == 0.0 {
                        Value::Error
                    } else {
                        Value::Real(x % y)
                    }
                }
                _ => unreachable!(),
            },
            _ => Value::Error,
        },
    }
}

fn three_valued_and(a: Value, b: Value) -> Value {
    use Value::*;
    match (bool3(&a), bool3(&b)) {
        (B3::False, _) | (_, B3::False) => Bool(false),
        (B3::Err, _) | (_, B3::Err) => Error,
        (B3::True, B3::True) => Bool(true),
        _ => Undefined,
    }
}

fn three_valued_or(a: Value, b: Value) -> Value {
    use Value::*;
    match (bool3(&a), bool3(&b)) {
        (B3::True, _) | (_, B3::True) => Bool(true),
        (B3::Err, _) | (_, B3::Err) => Error,
        (B3::False, B3::False) => Bool(false),
        _ => Undefined,
    }
}

enum B3 {
    True,
    False,
    Undef,
    Err,
}

fn bool3(v: &Value) -> B3 {
    match v {
        Value::Bool(true) => B3::True,
        Value::Bool(false) => B3::False,
        Value::Undefined => B3::Undef,
        _ => B3::Err,
    }
}

/// Does `a.Requirements` accept `b`? Missing `Requirements` accepts
/// everything (classic behaviour: an absent constraint is no constraint).
pub fn half_match(a: &ClassAd, b: &ClassAd) -> bool {
    half_match_expr(a.get("Requirements"), a, b)
}

/// [`half_match`] with `a`'s `Requirements` already looked up. Matchmakers
/// that test one ad against many candidates extract the expression once and
/// call this per candidate, skipping the per-pair attribute probe.
pub fn half_match_expr(requirements: Option<&Expr>, a: &ClassAd, b: &ClassAd) -> bool {
    match requirements {
        None => true,
        Some(req) => EvalCtx::matching(a, b).eval(req) == Value::Bool(true),
    }
}

/// Symmetric matchmaking: both ads' `Requirements` must accept the other.
pub fn symmetric_match(a: &ClassAd, b: &ClassAd) -> bool {
    half_match(a, b) && half_match(b, a)
}

/// Evaluate `a.Rank` against `b`. `UNDEFINED`, `ERROR` and non-numeric
/// ranks count as `0.0` (classic behaviour). Booleans coerce to 0/1.
pub fn rank(a: &ClassAd, b: &ClassAd) -> f64 {
    rank_expr(a.get("Rank"), a, b)
}

/// [`rank`] with `a`'s `Rank` already looked up (see [`half_match_expr`]).
pub fn rank_expr(rank: Option<&Expr>, a: &ClassAd, b: &ClassAd) -> f64 {
    match rank {
        None => 0.0,
        Some(r) => match EvalCtx::matching(a, b).eval(r) {
            Value::Int(i) => i as f64,
            Value::Real(f) => f,
            Value::Bool(bv) if bv => 1.0,
            _ => 0.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn eval_str(src: &str) -> Value {
        let ad = ClassAd::new();
        EvalCtx::solo(&ad).eval(&parse_expr(src).unwrap())
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval_str("1 + 2 * 3"), Value::Int(7));
        assert_eq!(eval_str("7 / 2"), Value::Int(3));
        assert_eq!(eval_str("7.0 / 2"), Value::Real(3.5));
        assert_eq!(eval_str("7 % 3"), Value::Int(1));
        assert_eq!(eval_str("1 / 0"), Value::Error);
        assert_eq!(eval_str("1.5 % 0"), Value::Error);
        assert_eq!(eval_str("-3 + 1"), Value::Int(-2));
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval_str("1 < 2"), Value::Bool(true));
        assert_eq!(eval_str("2.0 >= 2"), Value::Bool(true));
        assert_eq!(eval_str("\"abc\" == \"ABC\""), Value::Bool(true));
        assert_eq!(eval_str("\"abc\" < \"abd\""), Value::Bool(true));
        assert_eq!(eval_str("1 == \"1\""), Value::Error);
        assert_eq!(eval_str("true == true"), Value::Bool(true));
    }

    #[test]
    fn three_valued_logic() {
        // The absorption rules that make matchmaking robust to missing attrs.
        assert_eq!(eval_str("false && missing"), Value::Bool(false));
        assert_eq!(eval_str("missing && false"), Value::Bool(false));
        assert_eq!(eval_str("true || missing"), Value::Bool(true));
        assert_eq!(eval_str("missing || true"), Value::Bool(true));
        assert_eq!(eval_str("true && missing"), Value::Undefined);
        assert_eq!(eval_str("false || missing"), Value::Undefined);
        assert_eq!(eval_str("missing && missing"), Value::Undefined);
        // ERROR dominates unless absorbed.
        assert_eq!(eval_str("false && (1/0)"), Value::Bool(false));
        assert_eq!(eval_str("true && (1 == \"x\")"), Value::Error);
    }

    #[test]
    fn undefined_propagation() {
        assert_eq!(eval_str("missing + 1"), Value::Undefined);
        assert_eq!(eval_str("missing < 5"), Value::Undefined);
        assert_eq!(eval_str("!missing"), Value::Undefined);
        // But meta-comparison pins it down.
        assert_eq!(eval_str("missing =?= UNDEFINED"), Value::Bool(true));
        assert_eq!(eval_str("missing =!= UNDEFINED"), Value::Bool(false));
        assert_eq!(eval_str("5 =?= 5.0"), Value::Bool(false));
        assert_eq!(eval_str("\"A\" =?= \"a\""), Value::Bool(false));
    }

    #[test]
    fn conditional() {
        assert_eq!(eval_str("1 < 2 ? 10 : 20"), Value::Int(10));
        assert_eq!(eval_str("1 > 2 ? 10 : 20"), Value::Int(20));
        assert_eq!(eval_str("missing ? 10 : 20"), Value::Undefined);
        assert_eq!(eval_str("3 ? 10 : 20"), Value::Error);
    }

    #[test]
    fn attr_resolution_scopes() {
        let my = ClassAd::new().with("X", 1i64).with("Common", 10i64);
        let target = ClassAd::new().with("Y", 2i64).with("Common", 20i64);
        let ctx = EvalCtx::matching(&my, &target);
        assert_eq!(ctx.eval(&parse_expr("X").unwrap()), Value::Int(1));
        // Unqualified falls through to TARGET when absent in MY.
        assert_eq!(ctx.eval(&parse_expr("Y").unwrap()), Value::Int(2));
        // MY wins for shared names.
        assert_eq!(ctx.eval(&parse_expr("Common").unwrap()), Value::Int(10));
        assert_eq!(ctx.eval(&parse_expr("MY.Common").unwrap()), Value::Int(10));
        assert_eq!(
            ctx.eval(&parse_expr("TARGET.Common").unwrap()),
            Value::Int(20)
        );
        assert_eq!(ctx.eval(&parse_expr("TARGET.X").unwrap()), Value::Undefined);
    }

    #[test]
    fn target_attr_expressions_evaluate_in_their_own_frame() {
        // The target's derived attribute refers to *its own* Memory.
        let my = ClassAd::new().with("Memory", 1i64);
        let target = ClassAd::new()
            .with("Memory", 100i64)
            .with_parsed("KBytes", "MY.Memory * 1024");
        let ctx = EvalCtx::matching(&my, &target);
        assert_eq!(
            ctx.eval(&parse_expr("TARGET.KBytes").unwrap()),
            Value::Int(102_400)
        );
    }

    #[test]
    fn cycles_error_out() {
        let ad = ClassAd::new().with_parsed("A", "B").with_parsed("B", "A");
        assert_eq!(ad.eval_attr("A"), Value::Error);
        let selfref = ClassAd::new().with_parsed("X", "X + 1");
        assert_eq!(selfref.eval_attr("X"), Value::Error);
    }

    #[test]
    fn matchmaking_basics() {
        let job: ClassAd = "[
            ImageSize = 32;
            Requirements = TARGET.Memory >= MY.ImageSize && TARGET.Arch == \"INTEL\";
            Rank = TARGET.Mips;
        ]"
        .parse()
        .unwrap();
        let good: ClassAd = "[
            Arch = \"INTEL\"; Memory = 64; Mips = 300;
            Requirements = TARGET.ImageSize <= MY.Memory;
        ]"
        .parse()
        .unwrap();
        let small: ClassAd = "[
            Arch = \"INTEL\"; Memory = 16; Mips = 300;
        ]"
        .parse()
        .unwrap();
        let sparc: ClassAd = "[
            Arch = \"SPARC\"; Memory = 64;
        ]"
        .parse()
        .unwrap();
        assert!(symmetric_match(&job, &good));
        assert!(!symmetric_match(&job, &small));
        assert!(!symmetric_match(&job, &sparc));
        assert_eq!(rank(&job, &good), 300.0);
        assert_eq!(rank(&job, &sparc), 0.0);

        // A literal on the left compares in source order.
        let literal_first = ClassAd::new().with_parsed("Requirements", "64 <= TARGET.Memory");
        let big = ClassAd::new().with("Memory", 128i64);
        assert!(half_match(&literal_first, &big));
        assert!(!half_match(&literal_first, &small));
        // A top-level || accepts whichever arm holds.
        let either = ClassAd::new().with_parsed(
            "Requirements",
            "TARGET.Arch == \"INTEL\" || TARGET.Arch == \"SPARC\"",
        );
        assert!(half_match(&either, &sparc));
    }

    #[test]
    fn missing_requirements_matches_everything() {
        let a = ClassAd::new().with("x", 1i64);
        let b = ClassAd::new().with("y", 2i64);
        assert!(symmetric_match(&a, &b));
    }

    #[test]
    fn undefined_requirements_is_no_match() {
        let a = ClassAd::new().with_parsed("Requirements", "TARGET.DoesNotExist > 0");
        let b = ClassAd::new();
        assert!(!symmetric_match(&a, &b));
    }

    #[test]
    fn rank_boolean_coercion() {
        let a = ClassAd::new().with_parsed("Rank", "TARGET.Fast =?= TRUE");
        let fast = ClassAd::new().with("Fast", true);
        let slow = ClassAd::new();
        assert_eq!(rank(&a, &fast), 1.0);
        assert_eq!(rank(&a, &slow), 0.0);
    }

    /// A job asking for `requirements` of its candidate.
    fn job(requirements: &str) -> ClassAd {
        ClassAd::new()
            .with("ImageSize", 32i64)
            .with_parsed("Requirements", requirements)
    }

    // The (job, machine) pairs a literal `Requirements` pre-filter would
    // have to judge. The negotiator keeps no such filter: every pair goes
    // through the evaluator, so these pin its verdict on each case a filter
    // gets wrong most easily.

    #[test]
    fn rejects_wrong_literal_and_keeps_right_one() {
        let j = job("TARGET.Arch == \"INTEL\" && TARGET.Memory >= 64");
        let good = ClassAd::new().with("Arch", "INTEL").with("Memory", 128i64);
        let wrong_arch = ClassAd::new().with("Arch", "SPARC").with("Memory", 128i64);
        let small = ClassAd::new().with("Arch", "INTEL").with("Memory", 16i64);
        assert!(half_match(&j, &good));
        assert!(!half_match(&j, &wrong_arch));
        assert!(!half_match(&j, &small));
    }

    #[test]
    fn missing_attribute_rejects() {
        // An UNDEFINED conjunct can never become true.
        let j = job("TARGET.Arch == \"INTEL\"");
        let bare = ClassAd::new().with("Memory", 128i64);
        assert!(!half_match(&j, &bare));
    }

    #[test]
    fn computed_attribute_is_inconclusive() {
        // A computed attribute has no literal to compare against; only
        // evaluating it decides the pair.
        let j = job("TARGET.Memory >= 64");
        let computed = ClassAd::new()
            .with("Base", 32i64)
            .with_parsed("Memory", "Base * 4");
        assert!(half_match(&j, &computed));
        let computed_small = ClassAd::new()
            .with("Base", 8i64)
            .with_parsed("Memory", "Base * 4");
        assert!(!half_match(&j, &computed_small));
    }

    #[test]
    fn my_and_shadowed_references_are_not_extracted() {
        // MY.-scoped and owner-shadowed unqualified names describe the job,
        // never the candidate: the candidate's Memory changes nothing.
        let j = ClassAd::new()
            .with("Memory", 4i64)
            .with_parsed("Requirements", "MY.ImageSize < 64 && Memory > 1000");
        let big = ClassAd::new()
            .with("ImageSize", 1i64)
            .with("Memory", 2048i64);
        assert!(!half_match(&j, &big));
        let shadowing = ClassAd::new()
            .with("ImageSize", 32i64)
            .with("Memory", 2048i64)
            .with_parsed("Requirements", "MY.ImageSize < 64 && Memory > 1000");
        let small = ClassAd::new().with("Memory", 128i64);
        assert!(half_match(&shadowing, &small));
        // An unqualified name absent from the job resolves in the candidate.
        let k = ClassAd::new().with_parsed("Requirements", "Memory > 1000");
        assert!(!half_match(&k, &small));
        assert!(half_match(&k, &big));
    }

    #[test]
    fn reversed_operand_order_is_preserved() {
        let j = job("64 <= TARGET.Memory");
        let big = ClassAd::new().with("Memory", 128i64);
        let small = ClassAd::new().with("Memory", 16i64);
        assert!(half_match(&j, &big));
        assert!(!half_match(&j, &small));
    }

    #[test]
    fn non_conjunctive_requirements_reject_nothing() {
        // With || at the top level no single comparison is necessary.
        let j = job("TARGET.Arch == \"INTEL\" || TARGET.Arch == \"SPARC\"");
        let sparc = ClassAd::new().with("Arch", "SPARC");
        let intel = ClassAd::new().with("Arch", "INTEL");
        let alpha = ClassAd::new().with("Arch", "ALPHA");
        assert!(half_match(&j, &sparc));
        assert!(half_match(&j, &intel));
        assert!(!half_match(&j, &alpha));
    }

    #[test]
    fn type_mismatch_comparison_rejects_like_the_evaluator() {
        // 128 == "lots" is ERROR, not false, so neither == nor != holds.
        let m = ClassAd::new().with("Memory", 128i64);
        assert!(!half_match(&job("TARGET.Memory == \"lots\""), &m));
        assert!(!half_match(&job("TARGET.Memory != \"lots\""), &m));
    }
}
