//! The one stats format: an ordered list of named values, one
//! `name value` line per entry.
//!
//! `natix serve` answers `stats` with a [`Stats`] rendering and
//! `natix stats FILE` prints one; [`Stats::parse`] reads either back,
//! so every check looks a counter up by name instead of matching prose.

use std::fmt;

/// An ordered list of named values.
///
/// A name is lowercase ASCII letters, `_` and `.` (`store.live_records`)
/// and appears once. A value is one line of text that is not empty and
/// does not start with a space: a number, `no`, a reason or an address.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    entries: Vec<(String, String)>,
}

impl Stats {
    /// Append `name value`. The names are the program's own, so a
    /// malformed or repeated one panics; a value that would not read
    /// back (empty, led by a space, or spanning lines) is pushed in its
    /// quoted `Debug` form instead.
    pub fn push(&mut self, name: &str, value: impl fmt::Display) {
        let mut value = value.to_string();
        if !valid_value(&value) {
            value = format!("{value:?}");
        }
        self.insert(name, value).unwrap_or_else(|e| panic!("{e}"));
    }

    /// The value of `name`.
    pub fn get(&self, name: &str) -> Option<&str> {
        let (_, value) = self.entries.iter().find(|(n, _)| n == name)?;
        Some(value)
    }

    /// The value of `name` as a number; the error names the entry that
    /// is missing or not a number.
    pub fn u64(&self, name: &str) -> Result<u64, String> {
        let Some(value) = self.get(name) else {
            return Err(format!("stats has no {name}"));
        };
        value
            .parse()
            .map_err(|_| format!("stats {name} is not a number: {value}"))
    }

    /// The names, in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _)| n.as_str())
    }

    /// Read back what [`Display`](fmt::Display) renders. A malformed
    /// line or a repeated name is refused.
    pub fn parse(text: &str) -> Result<Stats, String> {
        let mut stats = Stats::default();
        for (i, line) in text.lines().enumerate() {
            let (name, value) = line.split_once(' ').unwrap_or((line, ""));
            let at = |e| format!("stats line {}: {e}", i + 1);
            stats.insert(name, value.to_string()).map_err(at)?;
        }
        Ok(stats)
    }

    /// Append an entry unless its name or value is malformed or the name
    /// is already there.
    fn insert(&mut self, name: &str, value: String) -> Result<(), String> {
        if !valid_name(name) || !valid_value(&value) {
            return Err(format!("malformed entry {name:?} {value:?}"));
        }
        if self.get(name).is_some() {
            return Err(format!("repeated name {name}"));
        }
        self.entries.push((name.to_string(), value));
        Ok(())
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.entries
            .iter()
            .try_for_each(|(name, value)| writeln!(f, "{name} {value}"))
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty() && name.bytes().all(|b| matches!(b, b'a'..=b'z' | b'_' | b'.'))
}

fn valid_value(value: &str) -> bool {
    !value.is_empty() && !value.starts_with(' ') && !value.contains(['\n', '\r'])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn parse_reads_back_what_display_renders(
            entries in proptest::collection::vec(("[a-z_.]{1,12}", "[!-~][ -~]{0,20}"), 0..16)
        ) {
            let mut stats = Stats::default();
            for (name, value) in &entries {
                if stats.get(name).is_none() {
                    stats.push(name, value);
                }
            }
            prop_assert_eq!(Stats::parse(&stats.to_string()), Ok(stats));
        }
    }

    #[test]
    fn malformed_lines_and_repeated_names_are_refused() {
        assert!(Stats::parse("store.pages 3\nserver.ok 1\n").is_ok());
        for text in [
            "store.pages\n",
            "store.pages \n",
            "store.pages  3\n",
            "Store.pages 3\n",
            "store-pages 3\n",
            " store.pages 3\n",
            "store.pages 3\n\n",
        ] {
            assert!(Stats::parse(text).is_err(), "{text:?} was accepted");
        }
        let err = Stats::parse("store.pages 3\nserver.ok 1\nstore.pages 4\n").unwrap_err();
        assert!(err.contains("repeated name store.pages"), "{err}");
    }

    #[test]
    fn lookups_name_what_is_missing() {
        let mut stats = Stats::default();
        stats.push("store.pages", 3);
        stats.push("store.read_only", "disk full");
        stats.push("store.replicate.source", "");
        assert_eq!(stats.u64("store.pages"), Ok(3));
        assert_eq!(stats.get("store.read_only"), Some("disk full"));
        assert_eq!(stats.get("store.replicate.source"), Some("\"\""));
        assert!(stats.u64("server.ok").unwrap_err().contains("server.ok"));
        assert!(stats.u64("store.read_only").is_err());
    }
}
