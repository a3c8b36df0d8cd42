//! Seeded single-token edits, truncations and random token streams of a
//! source text, shared by the frontends' mutation tests (this crate's
//! `mutation.rs` and cfront's).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Multi-character operators of Verilog and C, longest first.
const OPERATORS: &[&str] = &[
    "<<<", ">>>", "===", "!==", "<=", ">=", "==", "!=", "&&", "||", "<<", ">>", "->", "++", "--",
];

/// The byte ranges of `src`'s tokens: words (letters, digits, `_`, `$`
/// and `'`, so that `4'd1` is one token), operators and single
/// punctuation characters. Whitespace and comments are not tokens.
fn tokens(src: &str) -> Vec<(usize, usize)> {
    let word = |c: u8| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'$' | b'\'');
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(c) = src[i..].chars().next() {
        let rest = &src[i..];
        if c.is_whitespace() {
            i += c.len_utf8();
        } else if rest.starts_with("//") {
            i += rest.find('\n').unwrap_or(rest.len());
        } else if rest.starts_with("/*") {
            i += rest.find("*/").map_or(rest.len(), |end| end + 2);
        } else {
            let len = if word(rest.as_bytes()[0]) {
                rest.bytes().take_while(|&b| word(b)).count()
            } else {
                OPERATORS
                    .iter()
                    .find(|op| rest.starts_with(*op))
                    .map_or(c.len_utf8(), |op| op.len())
            };
            out.push((i, i + len));
            i += len;
        }
    }
    out
}

/// `n` mutants of `src`, each one edit at a random token: the token is
/// deleted, another token of `src` is inserted before it, or it is
/// replaced by another token of `src`.
pub fn mutants(src: &str, seed: u64, n: usize) -> Vec<String> {
    let toks = tokens(src);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let (start, end) = toks[rng.gen_range(0..toks.len())];
            let (other_start, other_end) = toks[rng.gen_range(0..toks.len())];
            let other = &src[other_start..other_end];
            let edit = match rng.gen_range(0..3u32) {
                0 => String::new(),
                1 => format!(" {other} {}", &src[start..end]),
                _ => format!(" {other} "),
            };
            format!("{}{edit}{}", &src[..start], &src[end..])
        })
        .collect()
}

/// Every prefix of `src` that ends at a token boundary, shortest first:
/// the source cut after its first token, its second, and so on to the
/// last.
pub fn prefixes(src: &str) -> Vec<String> {
    tokens(src)
        .iter()
        .map(|&(_, end)| src[..end].to_string())
        .collect()
}

/// `n` streams of tokens drawn at random from `src`'s tokens, each as
/// long as a random number up to `src`'s token count, separated by
/// spaces.
pub fn token_streams(src: &str, seed: u64, n: usize) -> Vec<String> {
    let toks = tokens(src);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let len = rng.gen_range(0..=toks.len());
            let stream: Vec<&str> = (0..len)
                .map(|_| {
                    let (start, end) = toks[rng.gen_range(0..toks.len())];
                    &src[start..end]
                })
                .collect();
            stream.join(" ")
        })
        .collect()
}
