//! Checksummed, length-prefixed journal framing for the decision store.
//!
//! Every record is one line:
//!
//! ```text
//! J1 <payload-len> <crc32-hex> <json-payload>\n
//! ```
//!
//! The length prefix detects *torn* records (a crash mid-`write` leaves a
//! short tail), the CRC-32 detects *corrupt* ones (bit flips, manual
//! edits). Replay classifies every line instead of failing: intact records
//! load, damaged ones are skipped and counted, and — crucially — damage is
//! contained to the damaged line, so every intact record before *and*
//! after it is salvaged. A line that is not `J1`-framed is damage like
//! any other: corrupt mid-file, torn as the unterminated tail.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

use grover_runtime::fault::IoFaults;

/// Frame marker for version 1 of the journal record format.
pub const FRAME_TAG: &str = "J1";

/// CRC-32 (IEEE 802.3, reflected) over `bytes`. Table-free bitwise form —
/// the journal appends are I/O-bound, not checksum-bound.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & 0u32.wrapping_sub(crc & 1));
        }
    }
    !crc
}

/// Frame one JSON payload as a journal line (including the trailing
/// newline). The payload must not contain raw newlines — the JSON writer
/// escapes control characters, so serialised records never do.
pub fn frame(payload: &str) -> String {
    format!(
        "{FRAME_TAG} {} {:08x} {payload}\n",
        payload.len(),
        crc32(payload.as_bytes())
    )
}

/// How replay classified one journal line.
#[derive(Debug, PartialEq, Eq)]
pub enum Line<'a> {
    /// An intact `J1` record; the JSON payload, checksum-verified.
    Record(&'a str),
    /// A record cut short by a crash mid-write (only possible as the
    /// file's unterminated tail).
    Torn,
    /// A record whose length or checksum does not match its payload, or
    /// any other line that is not a `J1` record, mid-file.
    Corrupt,
}

/// Classify one line of the journal. `terminated` is whether the line was
/// followed by a newline in the file — an undersized record with no
/// terminator is *torn* (crash mid-write), with one it is *corrupt*
/// (something rewrote history).
pub fn classify(line: &str, terminated: bool) -> Line<'_> {
    let Some(rest) = line.strip_prefix("J1 ") else {
        return if terminated {
            Line::Corrupt
        } else {
            Line::Torn
        };
    };
    let Some((len_s, rest)) = rest.split_once(' ') else {
        return if terminated {
            Line::Corrupt
        } else {
            Line::Torn
        };
    };
    let Some((crc_s, payload)) = rest.split_once(' ') else {
        return if terminated {
            Line::Corrupt
        } else {
            Line::Torn
        };
    };
    let (Ok(len), Ok(crc)) = (len_s.parse::<usize>(), u32::from_str_radix(crc_s, 16)) else {
        return if terminated {
            Line::Corrupt
        } else {
            Line::Torn
        };
    };
    if payload.len() < len && !terminated {
        return Line::Torn;
    }
    if payload.len() != len || crc32(payload.as_bytes()) != crc {
        return Line::Corrupt;
    }
    Line::Record(payload)
}

/// Split raw journal bytes into `(line, terminated)` pairs. Records never
/// contain raw newlines (the JSON writer escapes them), so the journal is
/// strictly line-oriented even though it is not plain JSONL.
pub fn lines(text: &str) -> impl Iterator<Item = (&str, bool)> {
    let unterminated_tail = !text.is_empty() && !text.ends_with('\n');
    let count = text.split('\n').count();
    text.split('\n').enumerate().filter_map(move |(i, line)| {
        if line.is_empty() {
            return None;
        }
        let is_last = i + 1 == count;
        Some((line, !(is_last && unterminated_tail)))
    })
}

/// Append one framed record to `out`, honouring `faults` at the
/// `journal.append` site (short-circuit or torn write), and flush.
pub(crate) fn append_framed(
    out: &mut File,
    payload: &str,
    faults: &IoFaults,
) -> std::io::Result<()> {
    let framed = frame(payload);
    match faults.fire("journal.append")? {
        Some(torn_at) => {
            // A torn write: part of the record reaches the file, then the
            // "crash". The caller must treat this as a failed append.
            let n = torn_at.min(framed.len());
            out.write_all(&framed.as_bytes()[..n])?;
            out.flush()?;
            Err(std::io::Error::other("fault-injection: torn journal write"))
        }
        None => {
            out.write_all(framed.as_bytes())?;
            out.flush()
        }
    }
}

/// Atomically replace the journal at `path` with `records` (already
/// serialised payloads): write a sibling temp file, fsync it, rename over
/// the original. A crash at any point leaves either the old or the new
/// journal, never a mix. Honours `faults` at the `journal.fsync` site.
pub(crate) fn rewrite_atomic(
    path: &Path,
    records: &[String],
    faults: &IoFaults,
) -> std::io::Result<()> {
    let tmp = path.with_extension("journal.tmp");
    {
        let mut out = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        for payload in records {
            out.write_all(frame(payload).as_bytes())?;
        }
        if let Err(e) = faults.fire("journal.fsync") {
            drop(out);
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        out.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Persist the rename itself where the platform allows it; failure to
    // fsync the directory only weakens power-loss guarantees, not
    // kill-safety, so it is non-fatal.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrips() {
        let payload = r#"{"k":"v"}"#;
        let line = frame(payload);
        assert!(line.ends_with('\n'));
        assert_eq!(
            classify(line.trim_end_matches('\n'), true),
            Line::Record(payload)
        );
    }

    #[test]
    fn short_unterminated_tail_is_torn() {
        let line = frame(r#"{"k":"v"}"#);
        let cut = &line[..line.len() - 4]; // lose the tail + newline
        assert_eq!(classify(cut, false), Line::Torn);
    }

    #[test]
    fn short_terminated_record_is_corrupt() {
        let line = frame(r#"{"k":"v"}"#);
        let cut = &line[..line.len() - 4];
        assert_eq!(classify(cut, true), Line::Corrupt);
    }

    #[test]
    fn bit_flip_is_corrupt_even_at_full_length() {
        let line = frame(r#"{"k":"value"}"#);
        let flipped = line.trim_end_matches('\n').replace("value", "vblue");
        assert_eq!(classify(&flipped, true), Line::Corrupt);
    }

    #[test]
    fn lines_marks_unterminated_tail() {
        let text = "a\nb\nc";
        let got: Vec<_> = lines(text).collect();
        assert_eq!(got, vec![("a", true), ("b", true), ("c", false)]);
        let got: Vec<_> = lines("a\nb\n").collect();
        assert_eq!(got, vec![("a", true), ("b", true)]);
    }
}
