//! `parse_module` pinned on the golden corpus of `search_properties.rs`.
//!
//! Every printed module parses back into an equal module. Seeded
//! mutations of each printed module (a replaced or deleted char, a
//! dropped or repeated line, a cut) parse to the outcomes pinned in
//! `tests/golden/parse_outcomes.txt`: `Ok` with the digest of the
//! re-printed module, or `Err` with the error's line and message. No
//! input may panic the parser.

mod common;

use optinline::ir::{parse_module, Module, ParseError};
use optinline::workloads::rng::StdRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What a replaced char becomes: the lexer's delimiters and comment
/// mark, a newline, a multi-byte char, an identifier char and a digit.
const MARKS: [char; 9] = ['"', '#', '-', '{', '}', '\n', 'é', 'x', '0'];

/// One seeded edit of a printed module. Offsets are bytes at char
/// boundaries; line numbers are 0-based.
enum Mutation {
    Replace(usize, char),
    Delete(usize),
    DropLine(usize),
    RepeatLine(usize),
    Cut(usize),
}

impl Mutation {
    /// The edits of one module: two replacements, then one of each
    /// other kind, at positions drawn from `rng`.
    fn draw(text: &str, rng: &mut StdRng) -> Vec<Mutation> {
        let chars: Vec<usize> = text.char_indices().map(|(at, _)| at).collect();
        let lines = text.split_inclusive('\n').count();
        let mut at = || chars[rng.gen_range(0..chars.len())];
        let (a, b, c, d) = (at(), at(), at(), at());
        vec![
            Mutation::Replace(a, MARKS[rng.gen_range(0..MARKS.len())]),
            Mutation::Replace(b, MARKS[rng.gen_range(0..MARKS.len())]),
            Mutation::Delete(c),
            Mutation::DropLine(rng.gen_range(0..lines)),
            Mutation::RepeatLine(rng.gen_range(0..lines)),
            Mutation::Cut(d),
        ]
    }

    fn apply(&self, text: &str) -> String {
        let char_end = |at: usize| at + text[at..].chars().next().map_or(0, char::len_utf8);
        match *self {
            Mutation::Replace(at, c) => {
                format!("{}{c}{}", &text[..at], &text[char_end(at)..])
            }
            Mutation::Delete(at) => format!("{}{}", &text[..at], &text[char_end(at)..]),
            Mutation::DropLine(n) | Mutation::RepeatLine(n) => {
                let copies = if matches!(self, Mutation::DropLine(_)) { 0 } else { 2 };
                let line_copies =
                    |(i, line)| std::iter::repeat_n(line, if i == n { copies } else { 1 });
                text.split_inclusive('\n').enumerate().flat_map(line_copies).collect()
            }
            Mutation::Cut(at) => text[..at].to_string(),
        }
    }

    fn label(&self) -> String {
        match self {
            Mutation::Replace(at, c) => format!("replace@{at}:{c:?}"),
            Mutation::Delete(at) => format!("delete@{at}"),
            Mutation::DropLine(n) => format!("drop-line@{n}"),
            Mutation::RepeatLine(n) => format!("repeat-line@{n}"),
            Mutation::Cut(at) => format!("cut@{at}"),
        }
    }
}

/// Parses `text`, turning a panic into a test failure that names `what`.
fn parse(text: &str, what: &str) -> Result<Module, ParseError> {
    catch_unwind(AssertUnwindSafe(|| parse_module(text)))
        .unwrap_or_else(|_| panic!("parse_module panicked on {what}"))
}

#[test]
fn printed_corpus_modules_parse_back_unchanged() {
    for module in common::golden_corpus() {
        let parsed = parse(&module.to_string(), &module.name);
        assert_eq!(parsed.as_ref(), Ok(&module), "{}", module.name);
    }
}

#[test]
fn mutated_modules_parse_to_golden_outcomes() {
    let mut rows = String::from("# module mutation outcome\n");
    for (i, module) in common::golden_corpus().iter().enumerate() {
        let text = module.to_string();
        let mut rng = StdRng::seed_from_u64(0x9a55_0000 + i as u64);
        for mutation in Mutation::draw(&text, &mut rng) {
            let label = mutation.label();
            let outcome = match parse(&mutation.apply(&text), &format!("{} {label}", module.name)) {
                Ok(m) => format!("Ok {}", common::module_digest(&m)),
                Err(e) => format!("Err {} {}", e.line, e.message),
            };
            rows.push_str(&format!("{} {label} {outcome}\n", module.name));
        }
    }
    common::assert_golden("parse_outcomes.txt", &rows);
}
