//! The Resource Specification Language.
//!
//! Globus RSL of the paper's era looks like:
//!
//! ```text
//! &(executable=gass://n0.c2/home/jane/sim.exe)
//!  (arguments="--events" "500")
//!  (count=1)
//!  (maxWallTime=120)          // minutes, per GRAM convention
//!  (stdin=gass://n0.c2/home/jane/in.dat)
//!  (stdout=gass://n0.c2/home/jane/out.dat)
//!  (environment=(CMS_EVENTS 500)(STAGE DIR))
//! ```
//!
//! Because the simulation does not execute real binaries, two extension
//! attributes carry the *simulated* behaviour of the job (documented in
//! DESIGN.md): `simruntime` (true service demand, seconds) and
//! `stdoutsize` (bytes of standard output the job produces).

use gridsim::time::Duration;
use std::collections::BTreeMap;
use std::fmt;

/// A parsed RSL job description.
#[derive(Clone, Debug, PartialEq)]
pub struct RslSpec {
    /// `executable` — usually a GASS URL to stage in.
    pub executable: String,
    /// `arguments` — positional strings.
    pub arguments: Vec<String>,
    /// `count` — processors requested (default 1).
    pub count: u32,
    /// `maxwalltime` — minutes, if the user declared one.
    pub max_wall_time: Option<Duration>,
    /// `stdin` — GASS URL to stage in, if any.
    pub stdin: Option<String>,
    /// `stdout` — GASS URL to stream/stage output to, if any.
    pub stdout: Option<String>,
    /// `environment` — name/value pairs.
    pub environment: BTreeMap<String, String>,
    /// Simulation extension: true runtime in seconds.
    pub sim_runtime: Duration,
    /// Simulation extension: bytes of stdout the job produces.
    pub stdout_size: u64,
    /// Simulation extension: bytes of the executable image (stage-in cost);
    /// 0 means "use the size served by the GASS server".
    pub image_size: u64,
    /// Unrecognized attributes, preserved verbatim.
    pub extra: BTreeMap<String, Vec<String>>,
}

impl Default for RslSpec {
    fn default() -> RslSpec {
        RslSpec {
            executable: String::new(),
            arguments: Vec::new(),
            count: 1,
            max_wall_time: None,
            stdin: None,
            stdout: None,
            environment: BTreeMap::new(),
            sim_runtime: Duration::from_secs(1),
            stdout_size: 0,
            image_size: 0,
            extra: BTreeMap::new(),
        }
    }
}

impl RslSpec {
    /// Builder: a job running `executable` for `runtime`.
    pub fn job(executable: &str, runtime: Duration) -> RslSpec {
        RslSpec {
            executable: executable.to_string(),
            sim_runtime: runtime,
            ..RslSpec::default()
        }
    }

    /// Builder: set processor count.
    pub fn with_count(mut self, count: u32) -> RslSpec {
        self.count = count;
        self
    }

    /// Builder: set stdout destination and size.
    pub fn with_stdout(mut self, url: &str, size: u64) -> RslSpec {
        self.stdout = Some(url.to_string());
        self.stdout_size = size;
        self
    }

    /// Builder: set stdin source.
    pub fn with_stdin(mut self, url: &str) -> RslSpec {
        self.stdin = Some(url.to_string());
        self
    }

    /// Builder: declare a wall-time request (minutes, GRAM convention).
    pub fn with_max_wall_minutes(mut self, minutes: u64) -> RslSpec {
        self.max_wall_time = Some(Duration::from_mins(minutes));
        self
    }

    /// Builder: add an environment variable.
    pub fn with_env(mut self, key: &str, value: &str) -> RslSpec {
        self.environment.insert(key.to_string(), value.to_string());
        self
    }
}

/// RSL parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RslError(pub String);

impl fmt::Display for RslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RSL error: {}", self.0)
    }
}

impl std::error::Error for RslError {}

/// Parse an RSL string.
pub fn parse(src: &str) -> Result<RslSpec, RslError> {
    let mut spec = RslSpec::default();
    let rest = src.trim();
    let rest = rest
        .strip_prefix('&')
        .ok_or_else(|| RslError("RSL must start with '&'".into()))?;
    let mut chars = rest.char_indices().peekable();
    let bytes = rest;
    let mut relations: Vec<(String, Vec<String>)> = Vec::new();
    while let Some(&(i, c)) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
            continue;
        }
        if c != '(' {
            return Err(RslError(format!("expected '(' at {i}, found {c:?}")));
        }
        // Find the matching close paren, respecting quotes and nesting.
        let (inner, consumed) = take_group(&bytes[i..])?;
        for _ in 0..consumed {
            chars.next();
        }
        let (name, values) = parse_relation(inner)?;
        relations.push((name, values));
    }
    for (name, values) in relations {
        apply(&mut spec, &name, values)?;
    }
    if spec.executable.is_empty() {
        return Err(RslError("missing executable".into()));
    }
    Ok(spec)
}

/// Return the contents of the leading `( ... )` group and the number of
/// chars consumed including both parens.
fn take_group(s: &str) -> Result<(&str, usize), RslError> {
    debug_assert!(s.starts_with('('));
    let mut depth = 0usize;
    let mut in_quote = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_quote = !in_quote,
            '(' if !in_quote => depth += 1,
            ')' if !in_quote => {
                depth -= 1;
                if depth == 0 {
                    return Ok((&s[1..i], i + 1));
                }
            }
            _ => {}
        }
    }
    Err(RslError("unbalanced parentheses".into()))
}

/// Parse `name=value value ...` or `name=(k v)(k v)` inside a relation.
fn parse_relation(inner: &str) -> Result<(String, Vec<String>), RslError> {
    let eq = inner
        .find('=')
        .ok_or_else(|| RslError(format!("missing '=' in ({inner})")))?;
    let name = inner[..eq].trim().to_ascii_lowercase();
    let value_src = inner[eq + 1..].trim();
    let values = tokenize_values(value_src)?;
    Ok((name, values))
}

/// Split a value list: bare words, quoted strings, and parenthesized pairs
/// (flattened as alternating tokens).
fn tokenize_values(src: &str) -> Result<Vec<String>, RslError> {
    let mut out = Vec::new();
    let mut rest = src.trim_start();
    while !rest.is_empty() {
        if rest.starts_with('"') {
            let end = rest[1..]
                .find('"')
                .ok_or_else(|| RslError("unterminated quote".into()))?;
            out.push(rest[1..=end].to_string());
            rest = rest[end + 2..].trim_start();
        } else if rest.starts_with('(') {
            let (inner, used) = take_group(rest)?;
            out.extend(tokenize_values(inner)?);
            rest = rest[used..].trim_start();
        } else {
            let end = rest
                .find(|c: char| c.is_whitespace() || c == '(' || c == '"')
                .unwrap_or(rest.len());
            out.push(rest[..end].to_string());
            rest = rest[end..].trim_start();
        }
    }
    Ok(out)
}

fn apply(spec: &mut RslSpec, name: &str, values: Vec<String>) -> Result<(), RslError> {
    let one = |values: Vec<String>| -> Result<String, RslError> {
        <[String; 1]>::try_from(values)
            .map(|[v]| v)
            .map_err(|values| RslError(format!("{name} expects one value, got {}", values.len())))
    };
    match name {
        "executable" => spec.executable = one(values)?,
        "arguments" => spec.arguments = values,
        "count" => {
            spec.count = one(values)?
                .parse()
                .map_err(|_| RslError("bad count".into()))?
        }
        "maxwalltime" => {
            let mins: u64 = one(values)?
                .parse()
                .map_err(|_| RslError("bad maxWallTime".into()))?;
            spec.max_wall_time = Some(Duration::from_mins(mins));
        }
        "stdin" => spec.stdin = Some(one(values)?),
        "stdout" => spec.stdout = Some(one(values)?),
        "environment" => {
            if !values.len().is_multiple_of(2) {
                return Err(RslError("environment expects (name value) pairs".into()));
            }
            for pair in values.chunks(2) {
                spec.environment.insert(pair[0].clone(), pair[1].clone());
            }
        }
        "simruntime" => {
            let secs: f64 = one(values)?
                .parse()
                .map_err(|_| RslError("bad simruntime".into()))?;
            spec.sim_runtime = Duration::from_secs_f64(secs);
        }
        "stdoutsize" => {
            spec.stdout_size = one(values)?
                .parse()
                .map_err(|_| RslError("bad stdoutsize".into()))?;
        }
        "imagesize" => {
            spec.image_size = one(values)?
                .parse()
                .map_err(|_| RslError("bad imagesize".into()))?;
        }
        _ => {
            spec.extra.insert(name.to_string(), values);
        }
    }
    Ok(())
}

impl RslSpec {
    /// `self.to_string()`, written into a buffer sized up front for a
    /// typical job description (the blanket `ToString` starts empty and
    /// doubles its way there).
    pub fn render(&self) -> String {
        use fmt::Write;
        let mut text = String::with_capacity(192);
        write!(text, "{self}").expect("writing to a String");
        text
    }
}

impl fmt::Display for RslSpec {
    /// Render as a parseable RSL string (this is what actually travels in
    /// [`crate::proto::GramRequest::Submit`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "&(executable={})", self.executable)?;
        if !self.arguments.is_empty() {
            write!(f, "(arguments=")?;
            for (i, a) in self.arguments.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                write!(f, "\"{a}\"")?;
            }
            write!(f, ")")?;
        }
        if self.count != 1 {
            write!(f, "(count={})", self.count)?;
        }
        if let Some(w) = self.max_wall_time {
            write!(f, "(maxWallTime={})", w.micros() / 60_000_000)?;
        }
        if let Some(s) = &self.stdin {
            write!(f, "(stdin={s})")?;
        }
        if let Some(s) = &self.stdout {
            write!(f, "(stdout={s})")?;
        }
        if !self.environment.is_empty() {
            write!(f, "(environment=")?;
            for (k, v) in &self.environment {
                write!(f, "({k} {v})")?;
            }
            write!(f, ")")?;
        }
        write!(f, "(simruntime={})", self.sim_runtime.as_secs_f64())?;
        if self.stdout_size != 0 {
            write!(f, "(stdoutsize={})", self.stdout_size)?;
        }
        if self.image_size != 0 {
            write!(f, "(imagesize={})", self.image_size)?;
        }
        for (k, vs) in &self.extra {
            write!(f, "({k}=")?;
            for (i, v) in vs.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                write!(f, "\"{v}\"")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal() {
        let s = parse("&(executable=/bin/hostname)").unwrap();
        assert_eq!(s.executable, "/bin/hostname");
        assert_eq!(s.count, 1);
        assert!(s.arguments.is_empty());
    }

    #[test]
    fn full_relation_set() {
        let s = parse(
            r#"&(executable=gass://n0.c2/sim.exe)
               (arguments="--events" "500" bare)
               (count=4)
               (maxWallTime=120)
               (stdin=gass://n0.c2/in.dat)
               (stdout=gass://n0.c2/out.dat)
               (environment=(CMS_EVENTS 500)(MODE fast))
               (simruntime=3600)
               (stdoutsize=1048576)
               (queue=batch)"#,
        )
        .unwrap();
        assert_eq!(s.executable, "gass://n0.c2/sim.exe");
        assert_eq!(s.arguments, vec!["--events", "500", "bare"]);
        assert_eq!(s.count, 4);
        assert_eq!(s.max_wall_time, Some(Duration::from_mins(120)));
        assert_eq!(s.stdin.as_deref(), Some("gass://n0.c2/in.dat"));
        assert_eq!(s.stdout.as_deref(), Some("gass://n0.c2/out.dat"));
        assert_eq!(s.environment["CMS_EVENTS"], "500");
        assert_eq!(s.environment["MODE"], "fast");
        assert_eq!(s.sim_runtime, Duration::from_hours(1));
        assert_eq!(s.stdout_size, 1_048_576);
        assert_eq!(s.extra["queue"], vec!["batch"]);
    }

    #[test]
    fn attribute_names_case_insensitive() {
        let s = parse("&(EXECUTABLE=/x)(Count=2)(MaxWallTime=5)").unwrap();
        assert_eq!(s.executable, "/x");
        assert_eq!(s.count, 2);
        assert_eq!(s.max_wall_time, Some(Duration::from_mins(5)));
    }

    #[test]
    fn quoted_values_keep_spaces() {
        let s = parse(r#"&(executable=/x)(arguments="hello world" "a(b)c")"#).unwrap();
        assert_eq!(s.arguments, vec!["hello world", "a(b)c"]);
    }

    #[test]
    fn errors() {
        assert!(parse("(executable=/x)").is_err(), "missing &");
        assert!(parse("&(executable=/x").is_err(), "unbalanced");
        assert!(parse("&(noequals)").is_err());
        assert!(parse("&(count=1)").is_err(), "missing executable");
        assert!(parse("&(executable=/x)(count=notanumber)").is_err());
        assert!(parse("&(executable=/x)(environment=(ODD))").is_err());
    }

    #[test]
    fn display_parse_round_trip() {
        let s = RslSpec::job("gass://n1.c2/exe", Duration::from_mins(30))
            .with_count(3)
            .with_stdout("gass://n1.c2/out", 4096)
            .with_stdin("gass://n1.c2/in")
            .with_max_wall_minutes(45)
            .with_env("CMS_EVENTS", "500");
        let printed = s.to_string();
        let back = parse(&printed).unwrap_or_else(|e| panic!("reparse `{printed}`: {e}"));
        assert_eq!(back, s);
    }

    #[test]
    fn display_round_trips_extra_attributes() {
        let mut s = RslSpec::job("/x", Duration::from_secs(10));
        s.extra
            .insert("queue".into(), vec!["batch".into(), "low pri".into()]);
        let back = parse(&s.to_string()).unwrap();
        assert_eq!(back.extra["queue"], vec!["batch", "low pri"]);
    }

    #[test]
    fn builder_round_trip_fields() {
        let s = RslSpec::job("gass://n1.c2/exe", Duration::from_mins(30))
            .with_count(2)
            .with_stdout("gass://n1.c2/out", 4096)
            .with_stdin("gass://n1.c2/in")
            .with_max_wall_minutes(45)
            .with_env("X", "1");
        assert_eq!(s.count, 2);
        assert_eq!(s.stdout_size, 4096);
        assert_eq!(s.max_wall_time, Some(Duration::from_mins(45)));
        assert_eq!(s.environment["X"], "1");
    }
}
