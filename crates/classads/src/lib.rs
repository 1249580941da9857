#![warn(missing_docs)]
//! `classads` — the Condor ClassAd language.
//!
//! Condor (and therefore Condor-G's GlideIn path and its MDS-based resource
//! broker) describes jobs and machines as *classified advertisements*:
//! attribute → expression maps evaluated under a two-ad context where `MY.`
//! refers to the evaluating ad and `TARGET.` to the candidate match. Two ads
//! match when each one's `Requirements` expression evaluates to `true`
//! against the other (Raman, Livny & Solomon's *Matchmaking* framework,
//! cited as \[25\] in the paper); `Rank` orders the matches.
//!
//! This crate implements the language from scratch:
//!
//! * a lexer and recursive-descent parser for the classic ClassAd syntax
//!   (`[ a = 1; Requirements = TARGET.Memory > 64; ... ]`),
//! * a three-valued evaluator (`UNDEFINED` / `ERROR` propagate the way the
//!   Condor semantics require, including the asymmetric `&&` / `||` rules
//!   and the meta-comparison operators `=?=` / `=!=`),
//! * a library of the builtin functions matchmaking policies actually use,
//!   and
//! * the symmetric match + rank entry points used by the `condor` and
//!   `condor-g` crates. `half_match_expr` and `rank_expr` take an
//!   expression already looked up, so a matchmaker pays each ad's
//!   attribute lookup once, not once per pair; every match decision still
//!   goes through the one evaluator.
//!
//! # Example
//!
//! ```
//! use classads::{ClassAd, symmetric_match, rank};
//!
//! let job: ClassAd = "[
//!     Cmd = \"sim.exe\";
//!     ImageSize = 48;
//!     Requirements = TARGET.Arch == \"INTEL\" && TARGET.Memory >= MY.ImageSize;
//!     Rank = TARGET.Mips;
//! ]".parse().unwrap();
//!
//! let machine: ClassAd = "[
//!     Arch = \"intel\";
//!     Memory = 128;
//!     Mips = 440;
//!     Requirements = TARGET.ImageSize < MY.Memory;
//! ]".parse().unwrap();
//!
//! // String == is case-insensitive, so "intel" matches "INTEL".
//! assert!(symmetric_match(&job, &machine));
//! assert_eq!(rank(&job, &machine), 440.0);
//! ```

pub mod ad;
pub mod eval;
pub mod expr;
pub mod funcs;
pub mod lexer;
pub mod parser;
pub mod value;

pub use ad::ClassAd;
pub use eval::{half_match_expr, rank, rank_expr, symmetric_match, EvalCtx};
pub use expr::{BinOp, Expr, UnOp};
pub use parser::{parse_ad, parse_expr, ParseError};
pub use value::Value;
