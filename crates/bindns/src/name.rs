//! Domain names: case-insensitive dotted label sequences.
//!
//! A [`DomainName`] holds its canonical text — lowercase labels joined by
//! dots, no trailing dot, `.` for the root — in one shared buffer, so a
//! clone is a reference-count bump and rendering is one copy. Equality
//! and hashing work on that text; ordering is label-wise (see its
//! [`Ord`] impl).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{NsError, NsResult};

/// Maximum bytes in one label.
pub const MAX_LABEL: usize = 63;
/// Maximum total bytes in a name (labels plus separating dots).
pub const MAX_NAME: usize = 255;

/// Canonical text of the root name.
const ROOT: &str = ".";

/// A fully qualified domain name (`fiji.cs.washington.edu`), stored as
/// its canonical lowercase dotted text.
#[derive(Debug, Clone)]
pub struct DomainName {
    text: Arc<str>,
}

impl DomainName {
    /// The root (empty) name.
    pub fn root() -> Self {
        DomainName {
            text: Arc::from(ROOT),
        }
    }

    /// Parses a dotted name. A single trailing dot (absolute form) is
    /// accepted and ignored; comparison is case-insensitive.
    pub fn parse(s: &str) -> NsResult<DomainName> {
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        if trimmed.is_empty() {
            return Ok(DomainName::root());
        }
        check_labels(trimmed, s)?;
        if !trimmed.bytes().any(|b| b.is_ascii_uppercase()) {
            return Ok(DomainName {
                text: Arc::from(trimmed),
            });
        }
        // Lowercase on the stack (the text fits in MAX_NAME bytes) so the
        // shared buffer is the one allocation.
        let mut buf = [0u8; MAX_NAME];
        let lower = &mut buf[..trimmed.len()];
        lower.copy_from_slice(trimmed.as_bytes());
        lower.make_ascii_lowercase();
        let text = std::str::from_utf8(lower)
            .map_err(|_| NsError::BadName(format!("bad character in `{s}`")))?;
        Ok(DomainName {
            text: Arc::from(text),
        })
    }

    /// Checks `s` exactly as [`DomainName::parse`] does, with the same
    /// errors, without building a name.
    pub fn check(s: &str) -> NsResult<()> {
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        if trimmed.is_empty() {
            return Ok(());
        }
        check_labels(trimmed, s)
    }

    /// [`DomainName::parse`] for text that arrives already shared: when
    /// `text` is canonical (lowercase, no trailing dot, or `.` itself)
    /// and valid, the name takes over the buffer instead of copying it.
    /// Other text goes through `parse`. The checks and errors are those
    /// of `parse`.
    pub fn adopt(text: &Arc<str>) -> NsResult<DomainName> {
        let canonical =
            &**text == ROOT || (is_valid(text) && !text.bytes().any(|b| b.is_ascii_uppercase()));
        if !canonical {
            return DomainName::parse(text);
        }
        Ok(DomainName {
            text: Arc::clone(text),
        })
    }

    /// The canonical text: lowercase labels joined by dots, `.` for the
    /// root.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The canonical text's shared buffer (a reference-count bump), for
    /// handing the name to a wire value without copying it.
    pub fn shared_text(&self) -> Arc<str> {
        Arc::clone(&self.text)
    }

    /// The labels, leftmost (most specific) first; none for the root.
    pub fn labels(&self) -> impl DoubleEndedIterator<Item = &str> {
        self.text.split('.').filter(|label| !label.is_empty())
    }

    /// Number of labels.
    pub fn depth(&self) -> usize {
        if self.is_root() {
            0
        } else {
            self.text.bytes().filter(|&b| b == b'.').count() + 1
        }
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        &*self.text == ROOT
    }

    /// Returns true if `self` equals `zone` or lies beneath it
    /// (`fiji.cs.washington.edu` is within `cs.washington.edu`).
    pub fn is_within(&self, zone: &DomainName) -> bool {
        if zone.is_root() {
            return true;
        }
        let (name, zone) = (self.as_str(), zone.as_str());
        match name.strip_suffix(zone) {
            Some("") => true,
            Some(above) => above.ends_with('.'),
            None => false,
        }
    }

    /// The name with the leftmost label removed.
    pub fn parent(&self) -> Option<DomainName> {
        if self.is_root() {
            return None;
        }
        Some(match self.text.split_once('.') {
            Some((_, rest)) => DomainName {
                text: Arc::from(rest),
            },
            None => DomainName::root(),
        })
    }

    /// Prepends a label, producing a child name.
    pub fn child(&self, label: &str) -> NsResult<DomainName> {
        let mut name = String::with_capacity(label.len() + 1 + self.text.len());
        name.push_str(label);
        name.push('.');
        name.push_str(&self.text);
        DomainName::parse(name.trim_end_matches('.'))
    }

    /// Interns the canonical text of this name in the global interner,
    /// returning its compact id.
    pub fn interned(&self) -> intern::NameId {
        intern::intern(&self.text)
    }

    /// Serialized length in bytes (labels plus dots; 1 for the root).
    pub fn wire_len(&self) -> usize {
        self.text.len()
    }
}

/// The checks of [`DomainName::parse`] on `trimmed`, the input `s` without
/// its trailing dot: at most [`MAX_NAME`] bytes, no empty label, every
/// label valid. Errors quote `s`.
fn check_labels(trimmed: &str, s: &str) -> NsResult<()> {
    if is_valid(trimmed) {
        return Ok(());
    }
    // Invalid: walk the labels again to name the first fault.
    let dotted = trimmed.len();
    if dotted > MAX_NAME {
        return Err(NsError::BadName(format!("name too long ({dotted} bytes)")));
    }
    for label in trimmed.split('.') {
        if label.is_empty() {
            return Err(NsError::BadName(format!("empty label in `{s}`")));
        }
        check_label(label)?;
    }
    Ok(())
}

/// [`check_labels`]'s verdict in one pass over the bytes, without the
/// error. Valid text is non-empty and has no trailing dot.
fn is_valid(trimmed: &str) -> bool {
    if trimmed.len() > MAX_NAME {
        return false;
    }
    let mut label = 0;
    for &b in trimmed.as_bytes() {
        if b == b'.' {
            if label == 0 {
                return false;
            }
            label = 0;
        } else if b.is_ascii_alphanumeric() || b == b'-' || b == b'_' {
            label += 1;
            if label > MAX_LABEL {
                return false;
            }
        } else {
            return false;
        }
    }
    label != 0
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

impl PartialEq for DomainName {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.text, &other.text) || self.text == other.text
    }
}

impl Eq for DomainName {}

impl Hash for DomainName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.text.hash(state);
    }
}

impl PartialOrd for DomainName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Label-wise order: names compare as their label sequences, leftmost
/// label first, each label byte-wise, so a dot sorts below every label
/// byte (`a` < `a.b` < `a-b`, although `-` sorts below `.` in ASCII).
/// Zone transfers list records in this order.
impl Ord for DomainName {
    fn cmp(&self, other: &Self) -> Ordering {
        let rank = |b: u8| if b == b'.' { 0 } else { b };
        let (a, b) = (self.text.as_bytes(), other.text.as_bytes());
        match a.iter().zip(b).position(|(x, y)| x != y) {
            Some(i) => rank(a[i]).cmp(&rank(b[i])),
            None => a.len().cmp(&b.len()),
        }
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
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
        assert_eq!(n.labels().next(), Some("fiji"));
        assert_eq!(n.labels().next_back(), Some("edu"));
        assert_eq!(DomainName::root().labels().count(), 0);
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
        // A text suffix that does not start at a label boundary.
        let ab = DomainName::parse("ab.cd").expect("parse");
        assert!(!ab.is_within(&DomainName::parse("b.cd").expect("parse")));
        assert!(DomainName::root().is_within(&DomainName::root()));
        assert!(!DomainName::root().is_within(&zone));
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
        // Label-wise, not text-wise: `-` sorts below `.` in ASCII, yet
        // the label `a` is a prefix of the label `a-b`.
        let names = ["a", "a.b", "a-b", "a0", "ab"].map(|s| DomainName::parse(s).expect("parse"));
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        assert!(DomainName::root() < names[0]);
    }

    #[test]
    fn clones_share_one_buffer() {
        let n = DomainName::parse("Fiji.CS.washington.edu").expect("parse");
        let copy = n.clone();
        assert!(Arc::ptr_eq(&n.text, &copy.text));
        assert_eq!(copy.as_str(), "fiji.cs.washington.edu");
        assert_eq!(DomainName::root().as_str(), ".");
        assert_eq!(DomainName::root().depth(), 0);
        assert_eq!(
            DomainName::parse("a.b").expect("parse").parent(),
            Some(DomainName::parse("b").expect("parse"))
        );
        assert_eq!(
            DomainName::parse("b").expect("parse").parent(),
            Some(DomainName::root())
        );
    }
}
