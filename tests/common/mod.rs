//! Helpers shared by the integration tests that pin outputs against the
//! files under `tests/golden/`.

// Each test crate that includes this module uses only some of its helpers.
#![allow(dead_code)]

use std::path::Path;

use optinline::ir::Module;

/// The 128-bit FNV-1a digest of `text`, as 32 hex digits: one short token
/// that changes with any byte of it.
pub fn digest(text: &str) -> String {
    format!("{:032x}", optinline::callgraph::fnv128(text.as_bytes()))
}

/// [`digest`] of the module's printed form.
pub fn module_digest(module: &Module) -> String {
    digest(&module.to_string())
}

/// Compares `actual` with `tests/golden/<name>` byte for byte.
///
/// On a mismatch the actual rows are written to
/// `CARGO_TARGET_TMPDIR/golden-actual/<name>` for diffing and the test
/// fails naming the first differing line. The golden file itself is never
/// rewritten.
pub fn assert_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden").join(name);
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if actual == expected {
        return;
    }
    let actual_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden-actual");
    std::fs::create_dir_all(&actual_dir).expect("scratch dir");
    let written = actual_dir.join(name);
    std::fs::write(&written, actual).expect("write actual rows");
    let first = actual
        .lines()
        .zip(expected.lines())
        .position(|(a, e)| a != e)
        .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
    panic!(
        "{name} differs from tests/golden at line {}: expected {:?}, got {:?}; \
         the actual rows are in {}",
        first + 1,
        expected.lines().nth(first),
        actual.lines().nth(first),
        written.display()
    );
}
