//! Parsing the textual IR format produced by the printer.
//!
//! [`parse_module`] accepts exactly the syntax emitted by the
//! [`Display`](std::fmt::Display) impl on [`Module`], making the pair a
//! round-trip (tested by property tests in the workspace).
//!
//! The lexer scans bytes and its tokens borrow identifiers and strings
//! from the source, so a parse allocates little beyond the module it
//! builds. `tests/parse_properties.rs` pins its answers, errors included,
//! on the golden corpus and seeded mutations of it.

use crate::function::Linkage;
use crate::ids::{BlockId, CallSiteId, FuncId, GlobalId, ValueId};
use crate::inst::{BinOp, Inst, JumpTarget, Terminator};
use crate::module::Module;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Error produced when parsing textual IR fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

/// A token, borrowing identifier and string text from the source.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Int(i64),
    Str(&'a str),
    Punct(char),
}

struct Lexer<'a> {
    toks: Vec<(Tok<'a>, usize)>,
    pos: usize,
}

/// Splits `src` into tokens with their 1-based lines. The scan walks
/// bytes: every delimiter is ASCII, so a multi-byte char is decoded only
/// where it must be whitespace to be legal.
fn lex(src: &str) -> Result<Vec<(Tok<'_>, usize)>, ParseError> {
    let bytes = src.as_bytes();
    // Printed modules run about four bytes a token.
    let mut toks = Vec::with_capacity(src.len() / 3);
    let mut line = 1usize;
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            // `char::is_whitespace` over ASCII, less the newline.
            b' ' | b'\t' | b'\r' | 0x0b | 0x0c => i += 1,
            b'#' => {
                // Comment to end of line.
                match bytes[i..].iter().position(|&c| c == b'\n') {
                    Some(at) => {
                        line += 1;
                        i += at + 1;
                    }
                    None => i = bytes.len(),
                }
            }
            b'"' => {
                let start = i + 1;
                match bytes[start..].iter().position(|&c| c == b'"' || c == b'\n') {
                    Some(len) if bytes[start + len] == b'"' => {
                        toks.push((Tok::Str(&src[start..start + len]), line));
                        i = start + len + 1;
                    }
                    _ => {
                        return Err(ParseError {
                            line,
                            message: "unterminated string literal".into(),
                        })
                    }
                }
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = i;
                i += 1;
                while bytes
                    .get(i)
                    .is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.')
                {
                    i += 1;
                }
                toks.push((Tok::Ident(&src[start..i]), line));
            }
            b if b.is_ascii_digit() || b == b'-' => {
                let start = i;
                i += 1;
                if b == b'-' && !bytes.get(i).is_some_and(u8::is_ascii_digit) {
                    return Err(ParseError { line, message: "expected digit after '-'".into() });
                }
                while bytes.get(i).is_some_and(u8::is_ascii_digit) {
                    i += 1;
                }
                let s = &src[start..i];
                let v = s.parse::<i64>().map_err(|_| ParseError {
                    line,
                    message: format!("integer literal out of range: {s}"),
                })?;
                toks.push((Tok::Int(v), line));
            }
            b'{' | b'}' | b'(' | b')' | b'[' | b']' | b',' | b':' | b'=' | b'@' => {
                toks.push((Tok::Punct(char::from(b)), line));
                i += 1;
            }
            _ => {
                // `i` sits on a char boundary: only whole chars and ASCII
                // bytes are ever stepped over.
                let c = src[i..].chars().next().unwrap_or(char::REPLACEMENT_CHARACTER);
                if !c.is_whitespace() {
                    return Err(ParseError {
                        line,
                        message: format!("unexpected character {c:?}"),
                    });
                }
                i += c.len_utf8();
            }
        }
    }
    Ok(toks)
}

impl<'a> Lexer<'a> {
    fn peek(&self) -> Option<Tok<'a>> {
        self.toks.get(self.pos).map(|&(t, _)| t)
    }

    fn line(&self) -> usize {
        self.toks.get(self.pos).or_else(|| self.toks.last()).map(|(_, l)| *l).unwrap_or(1)
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { line: self.line(), message: message.into() }
    }

    fn next(&mut self) -> Result<Tok<'a>, ParseError> {
        let t = self.peek().ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ParseError> {
        match self.next()? {
            Tok::Punct(p) if p == c => Ok(()),
            other => Err(self.err(format!("expected {c:?}, found {other:?}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<&'a str, ParseError> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        let line = self.line();
        match self.next()? {
            Tok::Ident(s) if s == kw => Ok(()),
            other => Err(ParseError { line, message: format!("expected `{kw}`, found {other:?}") }),
        }
    }

    fn expect_int(&mut self) -> Result<i64, ParseError> {
        match self.next()? {
            Tok::Int(v) => Ok(v),
            other => Err(self.err(format!("expected integer, found {other:?}"))),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }
}

fn parse_prefixed_id(lex: &Lexer<'_>, s: &str, prefix: char) -> Result<u32, ParseError> {
    let rest = s
        .strip_prefix(prefix)
        .ok_or_else(|| lex.err(format!("expected `{prefix}N` identifier, found `{s}`")))?;
    rest.parse::<u32>()
        .map_err(|_| lex.err(format!("expected `{prefix}N` identifier, found `{s}`")))
}

/// Every value id (`vN`) and call-site id (`sN`) the parser accepts is
/// below this. A function's value bound and a module's site bound are one
/// past the largest id, and the passes size per-value tables by the bound,
/// so the cap bounds what one id in a module's text makes them allocate.
/// Generated modules use ids below 400 and their always-inlined forms
/// below 40,000; the largest experiment module, the full-scale
/// amalgamation, reaches `v617303` when every call is inlined.
pub const ID_LIMIT: u32 = 1 << 20;

/// A value or site id, below [`ID_LIMIT`].
fn parse_dense_id(lex: &mut Lexer<'_>, prefix: char) -> Result<u32, ParseError> {
    let line = lex.line();
    let s = lex.expect_ident()?;
    match parse_prefixed_id(lex, s, prefix)? {
        id if id >= ID_LIMIT => {
            Err(ParseError { line, message: format!("id `{s}` is out of range") })
        }
        id => Ok(id),
    }
}

fn parse_value(lex: &mut Lexer<'_>) -> Result<ValueId, ParseError> {
    Ok(ValueId::new(parse_dense_id(lex, 'v')?))
}

fn parse_value_list(lex: &mut Lexer<'_>) -> Result<Vec<ValueId>, ParseError> {
    lex.expect_punct('(')?;
    let mut vals = Vec::new();
    if matches!(lex.peek(), Some(Tok::Punct(')'))) {
        lex.next()?;
        return Ok(vals);
    }
    loop {
        vals.push(parse_value(lex)?);
        match lex.next()? {
            Tok::Punct(',') => {}
            Tok::Punct(')') => break,
            other => return Err(lex.err(format!("expected `,` or `)`, found {other:?}"))),
        }
    }
    Ok(vals)
}

fn parse_target(lex: &mut Lexer<'_>) -> Result<JumpTarget, ParseError> {
    let s = lex.expect_ident()?;
    let block = BlockId::new(parse_prefixed_id(lex, s, 'b')?);
    let args = parse_value_list(lex)?;
    Ok(JumpTarget { block, args })
}

struct FnContext<'a, 's> {
    funcs_by_name: &'a HashMap<&'s str, FuncId>,
    globals_by_name: &'a HashMap<&'s str, GlobalId>,
}

fn parse_call_tail(
    lex: &mut Lexer<'_>,
    ctx: &FnContext<'_, '_>,
    dst: Option<ValueId>,
) -> Result<Inst, ParseError> {
    let callee_name = lex.expect_ident()?;
    let callee = *ctx
        .funcs_by_name
        .get(callee_name)
        .ok_or_else(|| lex.err(format!("unknown function `{callee_name}`")))?;
    let args = parse_value_list(lex)?;
    lex.expect_keyword("site")?;
    let site = CallSiteId::new(parse_dense_id(lex, 's')?);
    let mut inline_path = Vec::new();
    if lex.eat_keyword("path") {
        lex.expect_punct('[')?;
        while !matches!(lex.peek(), Some(Tok::Punct(']'))) {
            let name = lex.expect_ident()?;
            let f = *ctx
                .funcs_by_name
                .get(name)
                .ok_or_else(|| lex.err(format!("unknown function `{name}` in path")))?;
            inline_path.push(f);
        }
        lex.expect_punct(']')?;
    }
    Ok(Inst::Call { dst, callee, args, site, inline_path })
}

fn parse_global_ref(lex: &mut Lexer<'_>, ctx: &FnContext<'_, '_>) -> Result<GlobalId, ParseError> {
    lex.expect_punct('@')?;
    let name = lex.expect_ident()?;
    ctx.globals_by_name
        .get(name)
        .copied()
        .ok_or_else(|| lex.err(format!("unknown global `@{name}`")))
}

/// Parses a module from its textual representation.
///
/// # Errors
///
/// Returns a [`ParseError`] pointing at the offending line when the input is
/// not valid textual IR. The parser checks syntax and name resolution only;
/// run [`crate::verify::verify_module`] for semantic checks.
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    let toks = lex(src)?;
    let mut lex = Lexer { toks, pos: 0 };
    lex.expect_keyword("module")?;
    let name = match lex.next()? {
        Tok::Str(s) => s,
        other => return Err(lex.err(format!("expected module name string, found {other:?}"))),
    };
    lex.expect_punct('{')?;

    // Pre-scan: collect function names in declaration order so call
    // instructions can reference functions defined later in the file.
    let mut funcs_by_name: HashMap<&str, FuncId> = HashMap::new();
    let mut decl_order: Vec<(&str, Linkage, bool)> = Vec::new();
    {
        let mut i = lex.pos;
        while i < lex.toks.len() {
            if let (Tok::Ident(kw), line) = lex.toks[i] {
                if kw == "fn" {
                    if i == 0 {
                        return Err(ParseError {
                            line,
                            message: "`fn` must be preceded by `public` or `internal`".into(),
                        });
                    }
                    let linkage = match lex.toks[i - 1].0 {
                        Tok::Ident("public") => Linkage::Public,
                        Tok::Ident("internal") => Linkage::Internal,
                        _ => {
                            return Err(ParseError {
                                line,
                                message: "`fn` must be preceded by `public` or `internal`".into(),
                            })
                        }
                    };
                    if let Some(&(Tok::Ident(name), line)) = lex.toks.get(i + 1) {
                        let inlinable =
                            !matches!(lex.toks.get(i + 2), Some((Tok::Ident("noinline"), _)));
                        if funcs_by_name
                            .insert(name, FuncId::new(decl_order.len() as u32))
                            .is_some()
                        {
                            return Err(ParseError {
                                line,
                                message: format!("duplicate function `{name}`"),
                            });
                        }
                        decl_order.push((name, linkage, inlinable));
                    }
                }
            }
            i += 1;
        }
    }

    let mut module = Module::new(name);
    let mut globals_by_name: HashMap<&str, GlobalId> = HashMap::new();
    let mut max_site: Option<u32> = None;
    let mut defined = vec![false; decl_order.len()];

    loop {
        match lex.peek() {
            Some(Tok::Punct('}')) => {
                lex.next()?;
                break;
            }
            Some(Tok::Ident("global")) => {
                lex.next()?;
                lex.expect_punct('@')?;
                let gname = lex.expect_ident()?;
                lex.expect_punct('=')?;
                let init = lex.expect_int()?;
                if globals_by_name.contains_key(gname) {
                    return Err(lex.err(format!("duplicate global `@{gname}`")));
                }
                let id = module.add_global(gname, init);
                globals_by_name.insert(gname, id);
            }
            Some(Tok::Ident("public" | "internal")) => {
                lex.next()?;
                lex.expect_keyword("fn")?;
                let fname = lex.expect_ident()?;
                let fid = funcs_by_name[fname];
                lex.eat_keyword("noinline");
                lex.expect_punct('{')?;
                // Declare any functions not yet materialized, in order, so
                // ids match the pre-scan.
                while module.func_count() <= fid.index() {
                    let (n, l, inl) = decl_order[module.func_count()];
                    let id = module.declare_function(n, 0, l);
                    module.func_mut(id).inlinable = inl;
                }
                if defined[fid.index()] {
                    return Err(lex.err(format!("function `{fname}` defined twice")));
                }
                defined[fid.index()] = true;
                let ctx =
                    FnContext { funcs_by_name: &funcs_by_name, globals_by_name: &globals_by_name };
                parse_function_body(&mut lex, &ctx, &mut module, fid, &mut max_site)?;
            }
            other => return Err(lex.err(format!("expected item, found {other:?}"))),
        }
    }
    // Materialize trailing declared-but-unreached functions (cannot normally
    // happen, but keeps ids consistent with the pre-scan).
    while module.func_count() < decl_order.len() {
        let (n, l, inl) = decl_order[module.func_count()];
        let id = module.declare_function(n, 0, l);
        module.func_mut(id).inlinable = inl;
    }
    if let Some(m) = max_site {
        module.reserve_call_sites(m + 1);
    }
    Ok(module)
}

fn parse_function_body(
    lex: &mut Lexer<'_>,
    ctx: &FnContext<'_, '_>,
    module: &mut Module,
    fid: FuncId,
    max_site: &mut Option<u32>,
) -> Result<(), ParseError> {
    let mut max_value: u32 = 0;
    let mut first_block = true;
    loop {
        if matches!(lex.peek(), Some(Tok::Punct('}'))) {
            lex.next()?;
            break;
        }
        // Block header: bN(params):
        let s = lex.expect_ident()?;
        let bid = BlockId::new(parse_prefixed_id(lex, s, 'b')?);
        let params = parse_value_list(lex)?;
        lex.expect_punct(':')?;
        for p in &params {
            max_value = max_value.max(p.as_u32() + 1);
        }
        if first_block {
            if bid != BlockId::new(0) {
                return Err(lex.err("first block must be b0"));
            }
            // Replace the default empty entry with one carrying the params.
            let f = module.func_mut(fid);
            f.blocks[0].params = params;
            first_block = false;
        } else {
            let f = module.func_mut(fid);
            let got = f.add_block(params);
            if got != bid {
                return Err(lex.err(format!(
                    "expected block {got}, found {bid} (blocks must be dense and in order)"
                )));
            }
        }

        // Instructions until a terminator keyword.
        loop {
            let checkpoint = lex.pos;
            let word = match lex.next()? {
                Tok::Ident(s) => s,
                other => return Err(lex.err(format!("expected instruction, found {other:?}"))),
            };
            match word {
                "jump" => {
                    let t = parse_target(lex)?;
                    module.func_mut(fid).block_mut(bid).term = Terminator::Jump(t);
                    break;
                }
                "br" => {
                    let cond = parse_value(lex)?;
                    lex.expect_punct(',')?;
                    let then_to = parse_target(lex)?;
                    lex.expect_punct(',')?;
                    let else_to = parse_target(lex)?;
                    module.func_mut(fid).block_mut(bid).term =
                        Terminator::Branch { cond, then_to, else_to };
                    break;
                }
                "ret" => {
                    let v = if matches!(lex.peek(), Some(Tok::Ident(s)) if s.starts_with('v')) {
                        Some(parse_value(lex)?)
                    } else {
                        None
                    };
                    module.func_mut(fid).block_mut(bid).term = Terminator::Return(v);
                    break;
                }
                "unreachable" => {
                    module.func_mut(fid).block_mut(bid).term = Terminator::Unreachable;
                    break;
                }
                "store" => {
                    let g = parse_global_ref(lex, ctx)?;
                    lex.expect_punct(',')?;
                    let src = parse_value(lex)?;
                    module.func_mut(fid).block_mut(bid).insts.push(Inst::Store { global: g, src });
                }
                "call" => {
                    // Call with discarded result.
                    let inst = parse_call_tail(lex, ctx, None)?;
                    if let Inst::Call { site, .. } = &inst {
                        *max_site = Some(max_site.unwrap_or(0).max(site.as_u32()));
                    }
                    module.func_mut(fid).block_mut(bid).insts.push(inst);
                }
                _ => {
                    // Must be `vN = ...`.
                    lex.pos = checkpoint;
                    let dst = parse_value(lex)?;
                    max_value = max_value.max(dst.as_u32() + 1);
                    lex.expect_punct('=')?;
                    let op = lex.expect_ident()?;
                    let inst = match op {
                        "const" => {
                            let v = lex.expect_int()?;
                            Inst::Const { dst, value: v }
                        }
                        "call" => {
                            let inst = parse_call_tail(lex, ctx, Some(dst))?;
                            if let Inst::Call { site, .. } = &inst {
                                *max_site = Some(max_site.unwrap_or(0).max(site.as_u32()));
                            }
                            inst
                        }
                        "load" => {
                            let g = parse_global_ref(lex, ctx)?;
                            Inst::Load { dst, global: g }
                        }
                        other => {
                            let bop = BinOp::from_mnemonic(other)
                                .ok_or_else(|| lex.err(format!("unknown opcode `{other}`")))?;
                            let lhs = parse_value(lex)?;
                            lex.expect_punct(',')?;
                            let rhs = parse_value(lex)?;
                            Inst::Bin { dst, op: bop, lhs, rhs }
                        }
                    };
                    inst.for_each_use(|v| max_value = max_value.max(v.as_u32() + 1));
                    module.func_mut(fid).block_mut(bid).insts.push(inst);
                }
            }
        }
    }
    module.func_mut(fid).reserve_values(max_value);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;

    #[test]
    fn parses_minimal_module() {
        let m = parse_module(
            r#"module "t" {
                public fn main {
                b0():
                  v0 = const 1
                  ret v0
                }
            }"#,
        )
        .unwrap();
        assert_eq!(m.name, "t");
        assert_eq!(m.func_count(), 1);
        assert_eq!(m.func(FuncId::new(0)).inst_count(), 1);
    }

    #[test]
    fn parses_forward_references_and_sites() {
        let m = parse_module(
            r#"module "t" {
                public fn main {
                b0():
                  v0 = const 3
                  v1 = call helper(v0) site s4
                  ret v1
                }
                internal fn helper {
                b0(v0):
                  ret v0
                }
            }"#,
        )
        .unwrap();
        assert_eq!(m.call_site_bound(), 5);
        let main = m.func_by_name("main").unwrap();
        assert_eq!(m.func(main).call_sites(), vec![CallSiteId::new(4)]);
    }

    #[test]
    fn round_trips_printer_output() {
        let mut m = Module::new("rt");
        let g = m.add_global("g", -7);
        let h = m.declare_function("h", 1, Linkage::Internal);
        let f = m.declare_function("f", 1, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, h);
            let p = b.param(0);
            let c = b.iconst(-1);
            let r = b.bin(BinOp::Mul, p, c);
            b.store(g, r);
            b.ret(Some(r));
        }
        {
            let mut b = FuncBuilder::new(&mut m, f);
            let p = b.param(0);
            let (t, _) = b.new_block(0);
            let (e, eps) = b.new_block(1);
            b.branch(p, t, &[], e, &[p]);
            b.switch_to(t);
            let v = b.call(h, &[p]).unwrap();
            b.jump(e, &[v]);
            b.switch_to(e);
            b.ret(Some(eps[0]));
        }
        let text = m.to_string();
        let parsed = parse_module(&text).unwrap();
        assert_eq!(parsed.to_string(), text);
    }

    #[test]
    fn rejects_unknown_opcode() {
        let err = parse_module(
            r#"module "t" {
                public fn main {
                b0():
                  v0 = frobnicate v1, v2
                  ret
                }
            }"#,
        )
        .unwrap_err();
        assert!(err.message.contains("unknown opcode"));
        assert!(err.to_string().contains("line"));
    }

    #[test]
    fn rejects_duplicate_function() {
        let err = parse_module(
            r#"module "t" {
                public fn a {
                b0():
                  ret
                }
                public fn a {
                b0():
                  ret
                }
            }"#,
        )
        .unwrap_err();
        assert!(err.message.contains("duplicate function"));
    }

    /// A one-line `main` whose fourth line is `line`.
    fn one_line_main(line: &str) -> String {
        format!("module \"t\" {{\n  public fn main {{\n  b0():\n    {line}\n    ret\n  }}\n}}")
    }

    #[test]
    fn rejects_ids_at_the_cap_on_their_line() {
        for id in [ID_LIMIT, ID_LIMIT + 1, u32::MAX] {
            for (line, word) in [
                (format!("v{id} = const 1"), format!("v{id}")),
                (format!("call main() site s{id}"), format!("s{id}")),
            ] {
                let err = parse_module(&one_line_main(&line)).unwrap_err();
                let message = format!("id `{word}` is out of range");
                assert_eq!(err, ParseError { line: 4, message });
            }
        }
    }

    #[test]
    fn accepts_ids_just_below_the_cap() {
        let last = ID_LIMIT - 1;
        let m = parse_module(&one_line_main(&format!("v{last} = const 1"))).unwrap();
        assert_eq!(m.func(FuncId::new(0)).value_bound(), ID_LIMIT);
        let m = parse_module(&one_line_main(&format!("call main() site s{last}"))).unwrap();
        assert_eq!(m.call_site_bound(), ID_LIMIT);
    }

    #[test]
    fn rejects_out_of_order_blocks() {
        let err = parse_module(
            r#"module "t" {
                public fn a {
                b0():
                  jump b2()
                b2():
                  ret
                }
            }"#,
        )
        .unwrap_err();
        assert!(err.message.contains("dense and in order"));
    }

    #[test]
    fn parses_comments_and_noinline() {
        let m = parse_module(
            "module \"t\" {\n  # a comment\n  internal fn a noinline {\n  b0():\n    ret\n  }\n}",
        )
        .unwrap();
        assert!(!m.func(FuncId::new(0)).inlinable);
    }

    #[test]
    fn parses_inline_path_annotations() {
        let src = r#"module "t" {
            internal fn a {
            b0():
              call b() site s0 path [b]
              ret
            }
            internal fn b {
            b0():
              ret
            }
        }"#;
        let m = parse_module(src).unwrap();
        let a = m.func_by_name("a").unwrap();
        let b = m.func_by_name("b").unwrap();
        match &m.func(a).blocks[0].insts[0] {
            Inst::Call { inline_path, .. } => assert_eq!(inline_path, &vec![b]),
            other => panic!("expected call, got {other:?}"),
        }
    }
}
