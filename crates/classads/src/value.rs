//! ClassAd values and the three-valued comparison semantics.

use std::fmt;

/// The result of evaluating a ClassAd expression.
///
/// `Undefined` arises from missing attributes; `Error` from type errors.
/// Both flow through most operators, with the exceptions spelled out in
/// [`crate::eval`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A missing attribute or an operation on one.
    Undefined,
    /// A type error or an operation on one.
    Error,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// Double-precision real.
    Real(f64),
    /// String.
    Str(String),
    /// List of values (classic ClassAds support `{ ... }` lists).
    List(Vec<Value>),
}

impl Value {
    /// True if `Undefined`.
    pub fn is_undefined(&self) -> bool {
        matches!(self, Value::Undefined)
    }

    /// True if `Error`.
    pub fn is_error(&self) -> bool {
        matches!(self, Value::Error)
    }

    /// Numeric view: integers and reals coerce to `f64`; booleans do *not*.
    pub fn as_number(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::Real(r) => Some(r),
            _ => None,
        }
    }

    /// Boolean view (no coercion).
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer view (reals are truncated if integral, otherwise `None`).
    pub fn as_int(&self) -> Option<i64> {
        match *self {
            Value::Int(i) => Some(i),
            Value::Real(r) if r.fract() == 0.0 && r.is_finite() => Some(r as i64),
            _ => None,
        }
    }

    /// The ClassAd type name, used in diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Undefined => "undefined",
            Value::Error => "error",
            Value::Bool(_) => "boolean",
            Value::Int(_) => "integer",
            Value::Real(_) => "real",
            Value::Str(_) => "string",
            Value::List(_) => "list",
        }
    }

    /// ClassAd equality for the `==` operator family. Returns `None` when
    /// the comparison is a type error (mixed incomparable types).
    ///
    /// Numeric types compare by value across int/real; strings compare
    /// case-insensitively (classic ClassAd semantics — the paper-era
    /// matchmaker matched `"INTEL" == "intel"`).
    pub fn loose_eq(&self, other: &Value) -> Option<bool> {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => Some(a == b),
            (Value::Str(a), Value::Str(b)) => Some(a.eq_ignore_ascii_case(b)),
            _ => match (self.as_number(), other.as_number()) {
                (Some(a), Some(b)) => Some(a == b),
                _ => None,
            },
        }
    }

    /// Identity comparison for `=?=` (is-identical-to): never errors, never
    /// undefined; exact type and case-sensitive string match, and
    /// `UNDEFINED =?= UNDEFINED` is true.
    pub fn strict_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Undefined, Value::Undefined) => true,
            (Value::Error, Value::Error) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Real(a), Value::Real(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::List(a), Value::List(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.strict_eq(y))
            }
            _ => false,
        }
    }

    /// Ordering for `<`, `<=`, `>`, `>=`. `None` when incomparable.
    /// Strings order case-insensitively, numbers numerically.
    pub fn loose_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => {
                Some(a.to_ascii_lowercase().cmp(&b.to_ascii_lowercase()))
            }
            _ => match (self.as_number(), other.as_number()) {
                (Some(a), Some(b)) => a.partial_cmp(&b),
                _ => None,
            },
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Value {
        Value::Int(i as i64)
    }
}
impl From<u64> for Value {
    fn from(i: u64) -> Value {
        Value::Int(i as i64)
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Value {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(r: f64) -> Value {
        Value::Real(r)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Undefined => write!(f, "UNDEFINED"),
            Value::Error => write!(f, "ERROR"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => {
                if r.fract() == 0.0 && r.is_finite() && r.abs() < 1e15 {
                    write!(f, "{r:.1}")
                } else {
                    write!(f, "{r}")
                }
            }
            Value::Str(s) => {
                write!(f, "\"")?;
                for c in s.chars() {
                    match c {
                        '"' => write!(f, "\\\"")?,
                        '\\' => write!(f, "\\\\")?,
                        '\n' => write!(f, "\\n")?,
                        '\t' => write!(f, "\\t")?,
                        c => write!(f, "{c}")?,
                    }
                }
                write!(f, "\"")
            }
            Value::List(items) => {
                write!(f, "{{")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn loose_eq_numbers_cross_type() {
        assert_eq!(Value::Int(3).loose_eq(&Value::Real(3.0)), Some(true));
        assert_eq!(Value::Int(3).loose_eq(&Value::Real(3.5)), Some(false));
    }

    #[test]
    fn loose_eq_strings_case_insensitive() {
        assert_eq!(
            Value::from("INTEL").loose_eq(&Value::from("intel")),
            Some(true)
        );
        assert_eq!(Value::from("a").loose_eq(&Value::from("b")), Some(false));
    }

    #[test]
    fn loose_eq_mixed_types_is_error() {
        assert_eq!(Value::from("3").loose_eq(&Value::Int(3)), None);
        assert_eq!(Value::Bool(true).loose_eq(&Value::Int(1)), None);
    }

    #[test]
    fn strict_eq_identity() {
        assert!(Value::Undefined.strict_eq(&Value::Undefined));
        assert!(!Value::Undefined.strict_eq(&Value::Int(0)));
        assert!(!Value::from("A").strict_eq(&Value::from("a")));
        assert!(Value::Int(1).strict_eq(&Value::Int(1)));
        assert!(!Value::Int(1).strict_eq(&Value::Real(1.0)));
    }

    #[test]
    fn ordering() {
        assert_eq!(
            Value::Int(1).loose_cmp(&Value::Real(2.0)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::from("abc").loose_cmp(&Value::from("ABD")),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Bool(true).loose_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn display_round_trippable_forms() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Real(2.0).to_string(), "2.0");
        assert_eq!(Value::Bool(true).to_string(), "TRUE");
        assert_eq!(Value::from("a\"b").to_string(), "\"a\\\"b\"");
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Int(2)]).to_string(),
            "{1, 2}"
        );
    }

    #[test]
    fn as_int_truncates_integral_reals_only() {
        assert_eq!(Value::Real(4.0).as_int(), Some(4));
        assert_eq!(Value::Real(4.5).as_int(), None);
        assert_eq!(Value::Int(-2).as_int(), Some(-2));
    }
}
