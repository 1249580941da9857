//! GASS/GridFTP URLs.
//!
//! A URL names a serving component (a [`crate::GassServer`]'s address) plus
//! a path on it. The paper stresses that the submit machine's GASS server
//! URL can *change* across a crash-restart, with the JobManager updating
//! the job's URL file — so URLs are first-class values that move in
//! messages and can be compared and re-resolved.

use gridsim::{Addr, CompId, NodeId};
use std::fmt;
use std::str::FromStr;

/// Transfer scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// GASS (control-channel staging and streaming).
    Gass,
    /// GSI-authenticated GridFTP (bulk transfers).
    GsiFtp,
    /// Plain HTTP (GASS also speaks it, per §3.4).
    Http,
}

impl Scheme {
    fn as_str(self) -> &'static str {
        match self {
            Scheme::Gass => "gass",
            Scheme::GsiFtp => "gsiftp",
            Scheme::Http => "http",
        }
    }
}

/// A URL addressing a file served by a GASS/GridFTP server component.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GassUrl {
    /// The scheme.
    pub scheme: Scheme,
    /// The serving component.
    pub server: Addr,
    /// Path on the server.
    pub path: String,
}

impl GassUrl {
    /// A `gass://` URL.
    pub fn gass(server: Addr, path: &str) -> GassUrl {
        GassUrl {
            scheme: Scheme::Gass,
            server,
            path: path.to_string(),
        }
    }

    /// A `gsiftp://` URL.
    pub fn gsiftp(server: Addr, path: &str) -> GassUrl {
        GassUrl {
            scheme: Scheme::GsiFtp,
            server,
            path: path.to_string(),
        }
    }
}

impl fmt::Display for GassUrl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}://n{}.c{}{}",
            self.scheme.as_str(),
            self.server.node.0,
            self.server.comp.0,
            self.path
        )
    }
}

/// Parse failure for URLs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UrlError(pub String);

impl fmt::Display for UrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad url: {}", self.0)
    }
}

impl std::error::Error for UrlError {}

impl FromStr for GassUrl {
    type Err = UrlError;

    fn from_str(s: &str) -> Result<GassUrl, UrlError> {
        let (scheme_str, rest) = s
            .split_once("://")
            .ok_or_else(|| UrlError(format!("missing scheme in {s}")))?;
        let scheme = match scheme_str {
            "gass" => Scheme::Gass,
            "gsiftp" => Scheme::GsiFtp,
            "http" => Scheme::Http,
            other => return Err(UrlError(format!("unknown scheme {other}"))),
        };
        // Host form: nX.cY
        let slash = rest.find('/').unwrap_or(rest.len());
        let (host, path) = rest.split_at(slash);
        let (n, c) = host
            .split_once('.')
            .ok_or_else(|| UrlError(format!("bad host {host}")))?;
        let node: u32 = n
            .strip_prefix('n')
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| UrlError(format!("bad node in {host}")))?;
        let comp: u32 = c
            .strip_prefix('c')
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| UrlError(format!("bad comp in {host}")))?;
        Ok(GassUrl {
            scheme,
            server: Addr {
                node: NodeId(node),
                comp: CompId(comp),
            },
            path: if path.is_empty() {
                "/".to_string()
            } else {
                path.to_string()
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u32, c: u32) -> Addr {
        Addr {
            node: NodeId(n),
            comp: CompId(c),
        }
    }

    #[test]
    fn display_and_parse_round_trip() {
        let u = GassUrl::gass(addr(3, 14), "/home/jane/stdin");
        let s = u.to_string();
        assert_eq!(s, "gass://n3.c14/home/jane/stdin");
        assert_eq!(s.parse::<GassUrl>().unwrap(), u);

        let u = GassUrl::gsiftp(addr(0, 1), "/repo/events.dat");
        assert_eq!(u.to_string().parse::<GassUrl>().unwrap(), u);
    }

    #[test]
    fn parse_errors() {
        assert!("nope".parse::<GassUrl>().is_err());
        assert!("ftp://n1.c2/x".parse::<GassUrl>().is_err());
        assert!("gass://bad/x".parse::<GassUrl>().is_err());
        assert!("gass://n1.cX/x".parse::<GassUrl>().is_err());
    }

    #[test]
    fn empty_path_normalizes_to_root() {
        let u: GassUrl = "gass://n1.c2".parse().unwrap();
        assert_eq!(u.path, "/");
    }
}
