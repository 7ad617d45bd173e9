//! Plain-text address-trace import.
//!
//! The interchange format is deliberately minimal: one address per
//! line (decimal, or hex with an `0x` prefix), `#` comments,
//! and optional commas/whitespace separating several addresses on
//! one line — covering both hand-written traces and dumps from
//! profilers.

use crate::error::SeqError;
use crate::sequence::AddressSequence;

/// Parses a text trace into a sequence.
///
/// # Errors
///
/// Returns [`SeqError::ParseTrace`] with the 1-based line number of
/// the first malformed token.
pub fn parse_trace(text: &str) -> Result<AddressSequence, SeqError> {
    let mut out = AddressSequence::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        for token in line.split(|c: char| c.is_whitespace() || c == ',') {
            if token.is_empty() {
                continue;
            }
            let value = if let Some(hex) = token
                .strip_prefix("0x")
                .or_else(|| token.strip_prefix("0X"))
            {
                u32::from_str_radix(hex, 16)
            } else {
                token.parse::<u32>()
            };
            match value {
                Ok(v) => out.push(v),
                Err(_) => {
                    return Err(SeqError::ParseTrace {
                        line: idx + 1,
                        token: token.to_string(),
                    });
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mixed_formats() {
        let text = "\
# header comment
0, 1, 2
0x10 0x1F # inline comment
7
";
        let s = parse_trace(text).unwrap();
        assert_eq!(s.as_slice(), &[0, 1, 2, 16, 31, 7]);
    }

    #[test]
    fn empty_and_comment_only_inputs() {
        assert!(parse_trace("").unwrap().is_empty());
        assert!(parse_trace("# nothing\n\n  \n").unwrap().is_empty());
    }

    #[test]
    fn errors_carry_line_and_token() {
        let err = parse_trace("1\n2\nbogus 3\n").unwrap_err();
        match err {
            SeqError::ParseTrace { line, token } => {
                assert_eq!(line, 3);
                assert_eq!(token, "bogus");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
