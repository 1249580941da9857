//! The `ClassAd` container: an ordered, case-insensitively keyed map from
//! attribute names to expressions.

use crate::expr::Expr;
use crate::parser::{parse_ad, ParseError};
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// A classified advertisement.
///
/// Attribute names are case-insensitive for lookup but remember the case
/// they were first written with for display. Insertion order is preserved,
/// so printing is deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClassAd {
    entries: Vec<(String, Expr)>,
    index: HashMap<String, usize>,
}

impl ClassAd {
    /// An empty ad.
    pub fn new() -> ClassAd {
        ClassAd::default()
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the ad has no attributes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Set an attribute to an expression, replacing any existing binding
    /// (the original spelling of the name is kept on replacement).
    pub fn set_expr(&mut self, name: &str, expr: Expr) {
        let key = name.to_ascii_lowercase();
        match self.index.get(&key) {
            Some(&i) => self.entries[i].1 = expr,
            None => {
                self.index.insert(key, self.entries.len());
                self.entries.push((name.to_string(), expr));
            }
        }
    }

    /// Set an attribute to a literal value.
    pub fn set(&mut self, name: &str, value: impl Into<Value>) {
        self.set_expr(name, Expr::Lit(value.into()));
    }

    /// Parse `src` as an expression and set the attribute to it.
    pub fn set_parsed(&mut self, name: &str, src: &str) -> Result<(), ParseError> {
        let expr = crate::parser::parse_expr(src)?;
        self.set_expr(name, expr);
        Ok(())
    }

    /// Builder-style [`ClassAd::set`].
    pub fn with(mut self, name: &str, value: impl Into<Value>) -> ClassAd {
        self.set(name, value);
        self
    }

    /// Builder-style [`ClassAd::set_parsed`]; panics on parse errors, so use
    /// only with literal source in setup code.
    pub fn with_parsed(mut self, name: &str, src: &str) -> ClassAd {
        self.set_parsed(name, src)
            .unwrap_or_else(|e| panic!("bad expression for {name}: {e}"));
        self
    }

    /// Look up an attribute's expression (case-insensitive).
    ///
    /// Matchmaking probes ads millions of times, so the lowercase key is
    /// built on the stack for every realistic name length; only absurdly
    /// long names fall back to a heap allocation.
    pub fn get(&self, name: &str) -> Option<&Expr> {
        let mut buf = [0u8; 64];
        let i = if name.len() <= buf.len() {
            let key = &mut buf[..name.len()];
            key.copy_from_slice(name.as_bytes());
            key.make_ascii_lowercase();
            // ASCII-lowercasing touches only `A`..`Z` bytes, which never
            // occur inside multi-byte UTF-8 sequences, so this stays valid.
            self.index
                .get(std::str::from_utf8(key).expect("lowercased utf8"))
        } else {
            self.index.get(&name.to_ascii_lowercase())
        };
        i.map(|&i| &self.entries[i].1)
    }

    /// Remove an attribute; returns whether it existed.
    pub fn remove(&mut self, name: &str) -> bool {
        let key = name.to_ascii_lowercase();
        let Some(pos) = self.index.remove(&key) else {
            return false;
        };
        self.entries.remove(pos);
        // Re-index everything after the removed slot.
        for (i, (n, _)) in self.entries.iter().enumerate().skip(pos) {
            self.index.insert(n.to_ascii_lowercase(), i);
        }
        true
    }

    /// Iterate `(name, expr)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Expr)> {
        self.entries.iter().map(|(n, e)| (n.as_str(), e))
    }

    /// Evaluate an attribute in a *single-ad* context (no TARGET). Returns
    /// `Value::Undefined` for missing attributes.
    pub fn eval_attr(&self, name: &str) -> Value {
        crate::eval::EvalCtx::solo(self).attr(name)
    }

    /// Convenience: evaluate an attribute and view it as an integer.
    pub fn get_int(&self, name: &str) -> Option<i64> {
        self.eval_attr(name).as_int()
    }

    /// Convenience: evaluate an attribute and view it as a string.
    pub fn get_str(&self, name: &str) -> Option<String> {
        match self.eval_attr(name) {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Convenience: evaluate an attribute and view it as a float.
    pub fn get_real(&self, name: &str) -> Option<f64> {
        self.eval_attr(name).as_number()
    }
}

impl fmt::Display for ClassAd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[")?;
        for (name, expr) in &self.entries {
            writeln!(f, "    {name} = {expr};")?;
        }
        write!(f, "]")
    }
}

impl FromStr for ClassAd {
    type Err = ParseError;
    fn from_str(s: &str) -> Result<ClassAd, ParseError> {
        parse_ad(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_case_insensitive() {
        let mut ad = ClassAd::new();
        ad.set("Memory", 128i64);
        assert_eq!(ad.get_int("memory"), Some(128));
        assert_eq!(ad.get_int("MEMORY"), Some(128));
        ad.set("MEMORY", 256i64);
        assert_eq!(ad.len(), 1, "replacement, not duplication");
        assert_eq!(ad.get_int("Memory"), Some(256));
        // Original spelling preserved.
        assert_eq!(ad.iter().next().unwrap().0, "Memory");
    }

    #[test]
    fn remove_reindexes() {
        let mut ad = ClassAd::new()
            .with("a", 1i64)
            .with("b", 2i64)
            .with("c", 3i64);
        assert!(ad.remove("b"));
        assert!(!ad.remove("b"));
        assert_eq!(ad.get_int("a"), Some(1));
        assert_eq!(ad.get_int("c"), Some(3));
        assert_eq!(ad.len(), 2);
    }

    #[test]
    fn display_parse_round_trip() {
        let ad = ClassAd::new()
            .with("Name", "vulture.cs.wisc.edu")
            .with("Memory", 128i64)
            .with("LoadAvg", 0.25)
            .with_parsed("Requirements", "TARGET.ImageSize < MY.Memory * 1024");
        let printed = ad.to_string();
        let back: ClassAd = printed.parse().unwrap();
        assert_eq!(back, ad);
    }

    #[test]
    fn eval_attr_follows_references() {
        let ad = ClassAd::new()
            .with("Base", 100i64)
            .with_parsed("Derived", "Base * 2 + 1");
        assert_eq!(ad.get_int("Derived"), Some(201));
        assert_eq!(ad.eval_attr("Missing"), Value::Undefined);
    }
}
