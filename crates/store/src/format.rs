//! The on-disk line format shared by every scope log.
//!
//! A scope log is a newline-separated text file:
//!
//! ```text
//! optinline-store v1            <- version header; mismatch = restart
//! meta <tag>                    <- caller-supplied identity; mismatch = restart
//! <size> -                      <- size-only entry, clean slate (no inlined sites)
//! <size> s3,s7,s12              <- size-only entry, canonical strictly-sorted site set
//! <size>+<cycles> s3,s7         <- measurement entry carrying simulated cycles
//! ```
//!
//! Measurement entries extend the value field with `+<cycles>` rather
//! than bumping the header: a header bump would restart (discard) every
//! existing log, while the extended grammar lets old size-only lines keep
//! decoding (as `cycles: None`) and old readers skip the new lines as
//! malformed — degrading to a smaller cache, never a wrong answer.
//! Parsing is tolerant: any malformed line (bad integer, unsorted or
//! garbled site list, stray bytes, bytes that are not UTF-8) is skipped
//! individually, so a damaged log degrades to a smaller log, never an
//! error.

use optinline_ir::{CallSiteId, Measurement};

/// Format tag written as the first line of every scope log.
pub const HEADER: &str = "optinline-store v1";

/// Prefix of the identity line written right after the header.
pub const META_PREFIX: &str = "meta ";

/// Extension of scope logs inside the sharded directories.
pub const LOG_EXT: &str = "log";

/// Flattens a caller-supplied identity tag to one line: the meta line is
/// positional, so embedded newlines would desync the whole format.
pub fn sanitize_meta(meta: &str) -> String {
    meta.chars().map(|c| if c == '\n' || c == '\r' { ' ' } else { c }).collect()
}

/// Parses one entry line. `None` means the line is damaged and must be
/// skipped (never trusted, never fatal). A bare `<size>` value decodes to
/// a size-only measurement; `<size>+<cycles>` carries both metrics.
pub fn parse_entry(line: &str) -> Option<(Vec<CallSiteId>, Measurement)> {
    let (value_str, sites_str) = line.trim_end().split_once(' ')?;
    let value = match value_str.split_once('+') {
        Some((size_str, cycles_str)) => {
            Measurement::with_cycles(size_str.parse().ok()?, cycles_str.parse().ok()?)
        }
        None => Measurement::size_only(value_str.parse().ok()?),
    };
    let mut sites = Vec::new();
    if sites_str != "-" {
        for part in sites_str.split(',') {
            let id: u32 = part.strip_prefix('s')?.parse().ok()?;
            sites.push(CallSiteId::new(id));
        }
        // Canonical entries are strictly sorted; anything else is a
        // damaged line.
        if !sites.windows(2).all(|w| w[0] < w[1]) {
            return None;
        }
    }
    Some((sites, value))
}

/// [`parse_entry`] over a line's bytes: a line that is not UTF-8 is as
/// damaged as any other malformed line.
pub(crate) fn parse_entry_bytes(line: &[u8]) -> Option<(Vec<CallSiteId>, Measurement)> {
    std::str::from_utf8(line).ok().and_then(parse_entry)
}

/// A log image's lines as `BufRead::lines` splits text: at each `\n`,
/// less a `\r` right before it; the last line may lack its newline.
pub(crate) fn log_lines(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    bytes.split_inclusive(|&b| b == b'\n').map(|line| match line.strip_suffix(b"\n") {
        Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
        None => line,
    })
}

/// Formats an entry line (without the trailing newline). A size-only
/// measurement writes the bare-size form.
pub fn format_entry(key: &[CallSiteId], value: Measurement) -> String {
    let value_str = match value.cycles {
        Some(cycles) => format!("{}+{cycles}", value.size),
        None => value.size.to_string(),
    };
    if key.is_empty() {
        return format!("{value_str} -");
    }
    let sites: Vec<String> = key.iter().map(|s| s.to_string()).collect();
    format!("{value_str} {}", sites.join(","))
}

/// The sharded relative path of a scope log: `ab/cdef...0123.log`, so one
/// directory never accumulates thousands of files.
pub fn scope_rel_path(fingerprint: u128) -> (String, String) {
    let hex = format!("{fingerprint:032x}");
    (hex[..2].to_string(), format!("{}.{LOG_EXT}", &hex[2..]))
}

/// Splits a shard-directory file name into its log stem, or `None` for
/// anything that is not a `*.log` file — the tolerant replacement for
/// `strip_suffix(".log").unwrap()`, which panicked on any stray foreign
/// file (editor droppings, temp files) in a shard directory.
pub fn log_file_stem(file_name: &str) -> Option<&str> {
    file_name.strip_suffix(LOG_EXT).and_then(|s| s.strip_suffix('.'))
}

/// Recovers the fingerprint from a sharded path's components, if they
/// spell one.
pub fn fingerprint_of(shard: &str, file_stem: &str) -> Option<u128> {
    if shard.len() != 2 || file_stem.len() != 30 {
        return None;
    }
    u128::from_str_radix(&format!("{shard}{file_stem}"), 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(ids: &[u32]) -> Vec<CallSiteId> {
        ids.iter().map(|&i| CallSiteId::new(i)).collect()
    }

    #[test]
    fn entries_round_trip() {
        for value in [Measurement::size_only(777), Measurement::with_cycles(777, 4321)] {
            for key in [k(&[]), k(&[3]), k(&[1, 5, 9])] {
                let line = format_entry(&key, value);
                assert_eq!(parse_entry(&line), Some((key, value)));
            }
        }
    }

    #[test]
    fn size_only_entries_keep_the_legacy_wire_form() {
        // The bare-size grammar is what size scopes and old readers speak;
        // a size-only measurement must not change a single byte.
        assert_eq!(format_entry(&k(&[]), Measurement::size_only(100)), "100 -");
        assert_eq!(format_entry(&k(&[1, 3]), Measurement::size_only(80)), "80 s1,s3");
        assert_eq!(
            parse_entry("80 s1,s3"),
            Some((k(&[1, 3]), Measurement::size_only(80))),
            "old lines decode as cycles-free measurements"
        );
        assert_eq!(format_entry(&k(&[2]), Measurement::with_cycles(80, 900)), "80+900 s2");
    }

    #[test]
    fn damaged_lines_are_rejected() {
        for bad in [
            "",
            "x -",
            "12",
            "12 s",
            "12 sX",
            "12 s4,s2",
            "12 s4,s4",
            "\u{1F4A3}",
            "12+ -",
            "+9 -",
            "12+x s1",
            "12+3+4 -",
        ] {
            assert_eq!(parse_entry(bad), None, "{bad:?} should not parse");
        }
    }

    #[test]
    fn sharded_paths_round_trip() {
        let fp = 0xfeed_face_cafe_babe_dead_beef_0123_4567_u128;
        let (shard, file) = scope_rel_path(fp);
        assert_eq!(shard.len(), 2);
        let stem = log_file_stem(&file).expect("scope logs always carry the log extension");
        assert_eq!(fingerprint_of(&shard, stem), Some(fp));
    }

    #[test]
    fn foreign_file_names_have_no_log_stem() {
        for name in ["README.txt", "notes", "log", ".log.swp", "cafe.log.tmp.123", "x.LOG"] {
            assert_eq!(log_file_stem(name), None, "{name:?} is not a scope log");
        }
        assert_eq!(log_file_stem("cafebabe.log"), Some("cafebabe"));
    }

    #[test]
    fn log_lines_split_as_bufread_lines_does() {
        for text in ["", "a", "a\n", "a\r\nb", "a\rb\n\n", "a\r", "\n\r\n", "80 s\u{ff}2\r\n"] {
            let expected: Vec<String> =
                std::io::BufRead::lines(text.as_bytes()).map(Result::unwrap).collect();
            let lines: Vec<&[u8]> = log_lines(text.as_bytes()).collect();
            assert_eq!(
                lines,
                expected.iter().map(String::as_bytes).collect::<Vec<_>>(),
                "{text:?}"
            );
        }
    }

    #[test]
    fn meta_is_flattened() {
        assert_eq!(sanitize_meta("a\nb\rc"), "a b c");
    }
}
