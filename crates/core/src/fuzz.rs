//! Seeded mutation fuzzing for the decoders of untrusted bytes (test-only).
//!
//! Wire lines, journal frames and snapshots all arrive from outside the
//! process, so every decoder must answer a corrupted input with a
//! structured `Err`, never a panic. [`mutants`] turns a corpus of valid
//! inputs into a deterministic stream of damaged ones: bit flips, splices
//! from other corpus entries, truncation, duplicated object keys, deep
//! nesting and boundary numbers. The same seed yields the same stream, so
//! a failure names the seed and the mutant that reproduce it.
//!
//! The server crate includes this file by path for its private journal
//! decoders; keep it free of crate-local imports.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Numbers and tokens that sit on a decoder's edges: past `u64`, past
/// `u32` (a truncating `as u32` would read 2^32 + 8 as 8), past `u16`,
/// negative, fractional, huge, and values of the wrong type.
const EDGE_VALUES: [&str; 10] = [
    "18446744073709551616",
    "4294967304",
    "65536",
    "-1",
    "0.5",
    "1e308",
    "null",
    "true",
    "\"x\"",
    "{}",
];

/// `count` mutants of the entries of `corpus`, from `seed`.
fn mutants(corpus: &[Vec<u8>], seed: u64, count: usize) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut out = corpus[rng.random_range(0..corpus.len())].clone();
            for _ in 0..rng.random_range(1..=3usize) {
                mutate_once(&mut rng, &mut out, corpus);
            }
            out
        })
        .collect()
}

fn mutate_once(rng: &mut StdRng, out: &mut Vec<u8>, corpus: &[Vec<u8>]) {
    let at = |rng: &mut StdRng, len: usize| rng.random_range(0..=len);
    match rng.random_range(0..6u32) {
        // Bit flip.
        0 if !out.is_empty() => {
            let i = rng.random_range(0..out.len());
            out[i] ^= 1 << rng.random_range(0..8u32);
        }
        // Splice a slice of another corpus entry over a slice of this one.
        1 => {
            let donor = &corpus[rng.random_range(0..corpus.len())];
            let (a, b) = ordered(at(rng, donor.len()), at(rng, donor.len()));
            let (c, d) = ordered(at(rng, out.len()), at(rng, out.len()));
            out.splice(c..d, donor[a..b].iter().copied());
        }
        // Truncation.
        2 => {
            let len = at(rng, out.len());
            out.truncate(len);
        }
        // Duplicate one `"key":value` member in place.
        3 => {
            let starts: Vec<usize> = (1..out.len())
                .filter(|&i| out[i] == b'"' && matches!(out[i - 1], b'{' | b','))
                .collect();
            if let Some(&s) = starts.get(rng.random_range(0..starts.len().max(1))) {
                let end = (s..out.len())
                    .find(|&i| matches!(out[i], b',' | b'}'))
                    .unwrap_or(out.len());
                let mut member = out[s..end].to_vec();
                member.push(b',');
                out.splice(s..s, member);
            }
        }
        // Deep nesting.
        4 => {
            let depth = rng.random_range(1..200usize);
            let i = at(rng, out.len());
            let open = if rng.random_bool(0.5) { b'[' } else { b'{' };
            out.splice(i..i, std::iter::repeat_n(open, depth));
        }
        // Replace a run of digits with an edge value.
        _ => {
            let digits: Vec<usize> = (0..out.len())
                .filter(|&i| out[i].is_ascii_digit())
                .collect();
            if let Some(&s) = digits.get(rng.random_range(0..digits.len().max(1))) {
                let end = (s..out.len())
                    .find(|&i| !out[i].is_ascii_digit())
                    .unwrap_or(out.len());
                let edge = EDGE_VALUES[rng.random_range(0..EDGE_VALUES.len())];
                out.splice(s..end, edge.bytes());
            }
        }
    }
}

fn ordered(a: usize, b: usize) -> (usize, usize) {
    (a.min(b), a.max(b))
}

/// Runs `decode` on every mutant of `corpus`, failing with the seed and
/// the input when it panics. `decode` returns the decoders' error
/// messages; each must be non-empty (a structured, reportable `Err`).
pub(crate) fn check_decoders(
    corpus: &[Vec<u8>],
    seed: u64,
    count: usize,
    decode: impl Fn(&[u8]) -> Vec<String>,
) {
    for (n, input) in mutants(corpus, seed, count).into_iter().enumerate() {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| decode(&input)));
        match outcome {
            Ok(errors) => {
                for e in errors {
                    assert!(!e.is_empty(), "empty error for mutant {n} of seed {seed}");
                }
            }
            Err(_) => panic!(
                "decoder panicked on mutant {n} of seed {seed}: {:?}",
                String::from_utf8_lossy(&input)
            ),
        }
    }
}
