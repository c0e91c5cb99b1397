//! Domain names: case-insensitive dotted label sequences.

use std::borrow::Borrow;
use std::fmt;

use crate::error::{NsError, NsResult};

/// Maximum bytes in one label.
pub const MAX_LABEL: usize = 63;
/// Maximum total bytes in a name (labels plus separating dots).
pub const MAX_NAME: usize = 255;

/// A fully qualified domain name, stored as lowercase labels in
/// left-to-right order (`fiji.cs.washington.edu` → `["fiji", "cs",
/// "washington", "edu"]`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainName {
    labels: Vec<String>,
}

impl DomainName {
    /// The root (empty) name.
    pub fn root() -> Self {
        DomainName { labels: Vec::new() }
    }

    /// Parses a dotted name. A single trailing dot (absolute form) is
    /// accepted and ignored; comparison is case-insensitive.
    pub fn parse(s: &str) -> NsResult<DomainName> {
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        if trimmed.is_empty() {
            return Ok(DomainName::root());
        }
        check_len(trimmed.len())?;
        let mut labels = Vec::new();
        for label in trimmed.split('.') {
            if label.is_empty() {
                return Err(NsError::BadName(format!("empty label in `{s}`")));
            }
            check_label(label)?;
            labels.push(label.to_ascii_lowercase());
        }
        Ok(DomainName { labels })
    }

    /// Builds a name from its labels, leftmost first, with the checks
    /// [`DomainName::parse`] applies, without rendering and re-splitting
    /// a dotted string. Labels are lowercased in place.
    pub fn from_labels(mut labels: Vec<String>) -> NsResult<DomainName> {
        for label in &mut labels {
            if label.is_empty() {
                return Err(NsError::BadName("empty label".into()));
            }
            check_label(label)?;
            label.make_ascii_lowercase();
        }
        let dotted = labels.iter().map(String::len).sum::<usize>() + labels.len().saturating_sub(1);
        check_len(dotted)?;
        Ok(DomainName { labels })
    }

    /// The labels, leftmost (most specific) first.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Number of labels.
    pub fn depth(&self) -> usize {
        self.labels.len()
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    /// Returns true if `self` equals `zone` or lies beneath it
    /// (`fiji.cs.washington.edu` is within `cs.washington.edu`).
    pub fn is_within(&self, zone: &DomainName) -> bool {
        if zone.labels.len() > self.labels.len() {
            return false;
        }
        let offset = self.labels.len() - zone.labels.len();
        self.labels[offset..] == zone.labels[..]
    }

    /// The name with the leftmost label removed.
    pub fn parent(&self) -> Option<DomainName> {
        if self.labels.is_empty() {
            None
        } else {
            Some(DomainName {
                labels: self.labels[1..].to_vec(),
            })
        }
    }

    /// Prepends a label, producing a child name.
    pub fn child(&self, label: &str) -> NsResult<DomainName> {
        let mut name = format!("{label}.");
        name.push_str(&self.to_string());
        DomainName::parse(name.trim_end_matches('.'))
    }

    /// Interns the canonical (lowercase, dotted) rendering of this name
    /// in the global interner, returning its compact id. A thread-local
    /// buffer keeps the warm path allocation-free.
    pub fn interned(&self) -> intern::NameId {
        use std::fmt::Write as _;
        thread_local! {
            static BUF: std::cell::RefCell<String> = const { std::cell::RefCell::new(String::new()) };
        }
        BUF.with(|buf| {
            let mut buf = buf.borrow_mut();
            buf.clear();
            let _ = write!(buf, "{self}");
            intern::intern(&buf)
        })
    }

    /// Serialized length in bytes (labels plus dots).
    pub fn wire_len(&self) -> usize {
        if self.labels.is_empty() {
            1
        } else {
            self.labels.iter().map(|l| l.len()).sum::<usize>() + self.labels.len() - 1
        }
    }
}

/// Rejects a dotted rendering longer than [`MAX_NAME`] bytes.
fn check_len(dotted: usize) -> NsResult<()> {
    if dotted > MAX_NAME {
        return Err(NsError::BadName(format!("name too long ({dotted} bytes)")));
    }
    Ok(())
}

/// Rejects a label longer than [`MAX_LABEL`] bytes or holding a byte
/// other than an ASCII letter, digit, `-` or `_`.
fn check_label(label: &str) -> NsResult<()> {
    if label.len() > MAX_LABEL {
        return Err(NsError::BadName(format!("label `{label}` too long")));
    }
    if !label
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
    {
        return Err(NsError::BadName(format!(
            "bad character in label `{label}`"
        )));
    }
    Ok(())
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Some((first, rest)) = self.labels.split_first() else {
            return f.write_str(".");
        };
        f.write_str(first)?;
        for label in rest {
            f.write_str(".")?;
            f.write_str(label)?;
        }
        Ok(())
    }
}

/// A name borrows as its label slice, so ordered and hashed maps keyed
/// by names can be probed with any suffix of another name's labels (an
/// ancestor) without building it. Consistent with `Eq`, `Ord` and
/// `Hash`: all three are derived from the one `labels` field.
impl Borrow<[String]> for DomainName {
    fn borrow(&self) -> &[String] {
        &self.labels
    }
}

impl std::str::FromStr for DomainName {
    type Err = NsError;

    fn from_str(s: &str) -> NsResult<DomainName> {
        DomainName::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let n = DomainName::parse("fiji.cs.washington.edu").expect("parse");
        assert_eq!(n.depth(), 4);
        assert_eq!(n.to_string(), "fiji.cs.washington.edu");
        assert_eq!(n.labels()[0], "fiji");
    }

    #[test]
    fn case_insensitive_and_trailing_dot() {
        let a = DomainName::parse("Fiji.CS.Washington.EDU.").expect("parse");
        let b = DomainName::parse("fiji.cs.washington.edu").expect("parse");
        assert_eq!(a, b);
    }

    #[test]
    fn root_parses_from_empty_or_dot() {
        assert!(DomainName::parse("").expect("parse").is_root());
        assert!(DomainName::parse(".").expect("parse").is_root());
        assert_eq!(DomainName::root().to_string(), ".");
    }

    #[test]
    fn rejects_bad_names() {
        assert!(DomainName::parse("a..b").is_err());
        assert!(DomainName::parse(&"x".repeat(MAX_LABEL + 1)).is_err());
        assert!(DomainName::parse("bad name.com").is_err());
        assert!(DomainName::parse(&format!("{}.com", "a.".repeat(130))).is_err());
    }

    #[test]
    fn within_relation() {
        let host = DomainName::parse("fiji.cs.washington.edu").expect("parse");
        let zone = DomainName::parse("cs.washington.edu").expect("parse");
        let other = DomainName::parse("ee.washington.edu").expect("parse");
        assert!(host.is_within(&zone));
        assert!(host.is_within(&host));
        assert!(host.is_within(&DomainName::root()));
        assert!(!host.is_within(&other));
        assert!(!zone.is_within(&host));
    }

    #[test]
    fn parent_and_child() {
        let host = DomainName::parse("fiji.cs.washington.edu").expect("parse");
        let parent = host.parent().expect("parent");
        assert_eq!(parent.to_string(), "cs.washington.edu");
        assert_eq!(parent.child("fiji").expect("child"), host);
        assert!(DomainName::root().parent().is_none());
    }

    #[test]
    fn wire_len_counts_labels_and_dots() {
        let n = DomainName::parse("ab.cd").expect("parse");
        assert_eq!(n.wire_len(), 5);
        assert_eq!(DomainName::root().wire_len(), 1);
    }

    #[test]
    fn underscore_and_hyphen_allowed() {
        assert!(DomainName::parse("my-host.cs_dept.edu").is_ok());
    }

    #[test]
    fn ordering_is_stable_for_tree_keys() {
        let a = DomainName::parse("a.z").expect("parse");
        let b = DomainName::parse("b.z").expect("parse");
        assert!(a < b);
    }
}
