//! Text assembly frontend: parse `.s` source into a [`Program`].
//!
//! The [`ProgramBuilder`] constructs programs from
//! Rust; this module accepts the same instruction set as *text*, so
//! workloads can live in standalone `.s` files (see `crates/workloads/asm/`
//! and the reference manual in `docs/ISA.md`). [`assemble`] is a classic
//! two-pass assembler layered on the builder: pass one tokenizes lines,
//! emits instructions and records label definitions and uses; pass two
//! backpatches branch targets. Every failure is a typed [`AsmError`]
//! carrying the 1-based line and column it was detected at.
//!
//! [`disassemble`] renders any program back to round-trippable source:
//! `assemble(&disassemble(p))` reproduces `p`'s instructions, data image
//! and name exactly (the equivalence tests in `crates/isa/tests/asm.rs`
//! pin this against the builder-made kernels).
//!
//! # Syntax sketch
//!
//! ```text
//! .name sum16            ; program name
//! .equ  N 16             ; assembly-time constant
//! .data 0x10000          ; open a data segment at this byte address
//! .word 1, 2, 3, 4       ; append 8-byte words
//! .zero N                ; N zero words
//!
//!         li   r1, 0x10000
//!         li   r2, 0x10000 + N*8
//!         li   r3, 0
//! top:    load r4, 0(r1)         ; offset(base) addressing
//!         add  r3, r3, r4
//!         addi r1, r1, 8
//!         blt  r1, r2, top       ; labels resolve forward or backward
//!         halt
//! ```
//!
//! # Example
//!
//! ```
//! use bfetch_isa::{asm, ArchState, Reg};
//!
//! let p = asm::assemble(
//!     "li r1, 0\n\
//!      li r2, 10\n\
//!      top: addi r1, r1, 1\n\
//!      blt r1, r2, top\n\
//!      halt\n",
//! )
//! .unwrap();
//! let mut s = ArchState::new(&p);
//! s.run(&p, 100);
//! assert_eq!(s.reg(Reg::R1), 10);
//! ```

use crate::builder::{Label, ProgramBuilder};
use crate::inst::Inst;
use crate::mem::first_conflict;
use crate::program::Program;
use crate::reg::Reg;
use std::collections::HashMap;
use std::fmt;

/// Cap on `.zero`/`.fill` word counts, so a typo cannot ask the assembler
/// to materialize gigabytes (16 Mi words = 128 MiB, above every workload).
pub const MAX_FILL_WORDS: i64 = 1 << 24;

/// An assembly failure, positioned at the 1-based line and column where it
/// was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (byte offset within the line).
    pub col: u32,
    /// What went wrong.
    pub kind: AsmErrorKind,
}

/// The failure classes [`assemble`] reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmErrorKind {
    /// A mnemonic that names no instruction.
    UnknownMnemonic(String),
    /// A `.directive` this assembler does not define.
    UnknownDirective(String),
    /// An operand where a register was expected but `r0`..`r31` was not
    /// found.
    UnknownRegister(String),
    /// A branch names a label that is never defined.
    UnknownLabel(String),
    /// The same label is defined twice.
    DuplicateLabel(String),
    /// A label is defined after the last instruction, so it has no
    /// instruction to resolve to.
    LabelPastEnd(String),
    /// An expression names a constant that `.equ`/`.default` (or the
    /// [`assemble_with`] definitions) never introduced.
    UnknownSymbol(String),
    /// `.equ` redefines an existing constant.
    DuplicateSymbol(String),
    /// An instruction was given the wrong number of operands.
    OperandCount {
        /// The mnemonic as written.
        mnemonic: String,
        /// Operands its shape requires.
        expected: usize,
        /// Operands actually present.
        got: usize,
    },
    /// An operand that does not parse (malformed expression, bad memory
    /// operand, misplaced directive argument, ...). Carries a description.
    BadOperand(String),
    /// A literal or expression result outside the representable range
    /// (i64 overflow, shift amount > 63, oversized `.zero`/`.fill`).
    ImmOverflow(String),
    /// The source contains no instructions.
    EmptyProgram,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.kind)
    }
}

impl fmt::Display for AsmErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmErrorKind::UnknownMnemonic(m) => write!(f, "unknown mnemonic `{m}`"),
            AsmErrorKind::UnknownDirective(d) => write!(f, "unknown directive `{d}`"),
            AsmErrorKind::UnknownRegister(r) => {
                write!(f, "expected a register r0..r31, found `{r}`")
            }
            AsmErrorKind::UnknownLabel(l) => write!(f, "label `{l}` is never defined"),
            AsmErrorKind::DuplicateLabel(l) => write!(f, "label `{l}` defined twice"),
            AsmErrorKind::LabelPastEnd(l) => {
                write!(f, "label `{l}` points past the last instruction")
            }
            AsmErrorKind::UnknownSymbol(s) => write!(f, "unknown constant `{s}`"),
            AsmErrorKind::DuplicateSymbol(s) => write!(f, "constant `{s}` defined twice"),
            AsmErrorKind::OperandCount {
                mnemonic,
                expected,
                got,
            } => write!(f, "`{mnemonic}` takes {expected} operand(s), got {got}"),
            AsmErrorKind::BadOperand(msg) => write!(f, "bad operand: {msg}"),
            AsmErrorKind::ImmOverflow(what) => {
                write!(f, "immediate out of range: {what}")
            }
            AsmErrorKind::EmptyProgram => write!(f, "source contains no instructions"),
        }
    }
}

impl std::error::Error for AsmError {}

/// Assembles `src` into a [`Program`]. See the module docs for the syntax
/// and `docs/ISA.md` for the full reference.
pub fn assemble(src: &str) -> Result<Program, AsmError> {
    assemble_with(src, &[])
}

/// [`assemble`] with pre-defined constants, the hook scale-parameterized
/// workloads use: a definition here wins over a `.default` of the same
/// name in the source (while `.equ` of a predefined name is still a
/// duplicate-symbol error).
///
/// ```
/// use bfetch_isa::asm::assemble_with;
/// let p = assemble_with(".default N 4\nli r1, N\nhalt\n", &[("N", 9)]).unwrap();
/// assert_eq!(p.inst(0), bfetch_isa::Inst::LoadImm { rd: bfetch_isa::Reg::R1, imm: 9 });
/// ```
pub fn assemble_with(src: &str, defs: &[(&str, i64)]) -> Result<Program, AsmError> {
    let mut a = Assembler::new(defs);
    for (i, raw) in src.lines().enumerate() {
        a.line = i as u32 + 1;
        a.parse_line(raw)?;
    }
    a.finish()
}

// ---------------------------------------------------------------------------
// the assembler proper
// ---------------------------------------------------------------------------

struct LabelState {
    label: Label,
    /// Where the label was bound, if it has been.
    bound: Option<usize>,
    /// Definition position (for `LabelPastEnd` reporting).
    def_at: Option<(u32, u32)>,
    /// First use position (for `UnknownLabel` reporting).
    used_at: Option<(u32, u32)>,
}

struct Assembler {
    b: ProgramBuilder,
    line: u32,
    name: Option<String>,
    emitted: usize,
    labels: HashMap<String, LabelState>,
    /// Source order of first label mentions, so errors report the earliest
    /// offending site deterministically.
    label_order: Vec<String>,
    syms: HashMap<String, i64>,
    /// Each `.data` segment: base, words, and the base operand's position.
    segments: Vec<(u64, Vec<u64>, (u32, u32))>,
}

impl Assembler {
    fn new(defs: &[(&str, i64)]) -> Self {
        Self {
            b: ProgramBuilder::new("asm"),
            line: 0,
            name: None,
            emitted: 0,
            labels: HashMap::new(),
            label_order: Vec::new(),
            syms: defs.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
            segments: Vec::new(),
        }
    }

    fn err(&self, col: u32, kind: AsmErrorKind) -> AsmError {
        AsmError {
            line: self.line,
            col,
            kind,
        }
    }

    /// 1-based column of `sub`'s start within `full` (both must borrow the
    /// same line buffer).
    fn col_of(full: &str, sub: &str) -> u32 {
        (sub.as_ptr() as usize - full.as_ptr() as usize) as u32 + 1
    }

    fn parse_line(&mut self, raw: &str) -> Result<(), AsmError> {
        // comments: `;`, `#`, and `//` all cut the line
        let mut code = raw;
        for marker in [";", "#", "//"] {
            if let Some(pos) = code.find(marker) {
                code = &code[..pos];
            }
        }

        // leading `name:` label definitions (possibly several)
        let mut rest = code.trim_start();
        while let Some((label, after)) = split_label_def(rest) {
            let col = Self::col_of(raw, label);
            self.define_label(label, col)?;
            rest = after.trim_start();
        }

        let rest = rest.trim_end();
        if rest.is_empty() {
            return Ok(());
        }
        if rest.starts_with('.') {
            self.parse_directive(raw, rest)
        } else {
            self.parse_inst(raw, rest)
        }
    }

    fn define_label(&mut self, name: &str, col: u32) -> Result<(), AsmError> {
        let here = self.b.here();
        let at = (self.line, col);
        let state = self.label_state(name);
        if state.bound.is_some() {
            return Err(AsmError {
                line: at.0,
                col: at.1,
                kind: AsmErrorKind::DuplicateLabel(name.to_string()),
            });
        }
        state.bound = Some(here);
        state.def_at = Some(at);
        let label = state.label;
        self.b.bind(label);
        Ok(())
    }

    fn label_state(&mut self, name: &str) -> &mut LabelState {
        if !self.labels.contains_key(name) {
            let label = self.b.label();
            self.labels.insert(
                name.to_string(),
                LabelState {
                    label,
                    bound: None,
                    def_at: None,
                    used_at: None,
                },
            );
            self.label_order.push(name.to_string());
        }
        self.labels.get_mut(name).expect("just inserted")
    }

    fn use_label(&mut self, name: &str, col: u32) -> Label {
        let at = (self.line, col);
        let state = self.label_state(name);
        if state.used_at.is_none() {
            state.used_at = Some(at);
        }
        state.label
    }

    // -- directives -------------------------------------------------------

    fn parse_directive(&mut self, raw: &str, rest: &str) -> Result<(), AsmError> {
        let col = Self::col_of(raw, rest);
        let (dir, args) = match rest.find(char::is_whitespace) {
            Some(p) => (&rest[..p], rest[p..].trim()),
            None => (rest, ""),
        };
        match dir {
            ".name" => {
                if args.is_empty() || args.contains(char::is_whitespace) {
                    return Err(self.err(
                        col,
                        AsmErrorKind::BadOperand(".name takes one identifier".into()),
                    ));
                }
                self.name = Some(args.to_string());
            }
            ".equ" | ".default" => {
                let (sym, expr) = match args.find(char::is_whitespace) {
                    Some(p) => (&args[..p], args[p..].trim()),
                    None => {
                        return Err(self.err(
                            col,
                            AsmErrorKind::BadOperand(format!("{dir} takes a name and a value")),
                        ))
                    }
                };
                if !is_ident(sym) {
                    return Err(self.err(
                        Self::col_of(raw, sym),
                        AsmErrorKind::BadOperand(format!("`{sym}` is not a valid constant name")),
                    ));
                }
                if self.syms.contains_key(sym) {
                    if dir == ".equ" {
                        return Err(self.err(
                            Self::col_of(raw, sym),
                            AsmErrorKind::DuplicateSymbol(sym.to_string()),
                        ));
                    }
                    return Ok(()); // .default yields to an existing definition
                }
                let v = self.eval(raw, expr)?;
                self.syms.insert(sym.to_string(), v);
            }
            ".data" => {
                let base = self.eval(raw, args)?;
                if base < 0 {
                    return Err(self.err(
                        Self::col_of(raw, args),
                        AsmErrorKind::BadOperand(format!(".data base {base} is negative")),
                    ));
                }
                let at = (self.line, Self::col_of(raw, args));
                self.segments.push((base as u64, Vec::new(), at));
            }
            ".word" => {
                if args.is_empty() {
                    return Err(
                        self.err(col, AsmErrorKind::BadOperand(".word takes value(s)".into()))
                    );
                }
                let mut words = Vec::new();
                for piece in split_operands(args) {
                    words.push(self.eval(raw, piece)? as u64);
                }
                self.append_words(col, &words)?;
            }
            ".zero" | ".fill" => {
                let pieces: Vec<&str> = split_operands(args).collect();
                let (count_src, value) = match (dir, pieces.as_slice()) {
                    (".zero", [n]) => (*n, 0i64),
                    (".fill", [n, v]) => (*n, self.eval(raw, v)?),
                    _ => {
                        return Err(self.err(
                            col,
                            AsmErrorKind::BadOperand(format!(
                                "{dir} takes {}",
                                if dir == ".zero" {
                                    "a count"
                                } else {
                                    "a count and a value"
                                }
                            )),
                        ))
                    }
                };
                let count = self.eval(raw, count_src)?;
                if !(0..=MAX_FILL_WORDS).contains(&count) {
                    return Err(self.err(
                        Self::col_of(raw, count_src),
                        AsmErrorKind::ImmOverflow(format!(
                            "{dir} count {count} (limit {MAX_FILL_WORDS})"
                        )),
                    ));
                }
                self.append_words(col, &vec![value as u64; count as usize])?;
            }
            other => return Err(self.err(col, AsmErrorKind::UnknownDirective(other.to_string()))),
        }
        Ok(())
    }

    fn append_words(&mut self, col: u32, words: &[u64]) -> Result<(), AsmError> {
        match self.segments.last_mut() {
            Some((_, seg, _)) => {
                seg.extend_from_slice(words);
                Ok(())
            }
            None => Err(self.err(
                col,
                AsmErrorKind::BadOperand("data before any .data segment".into()),
            )),
        }
    }

    // -- instructions -----------------------------------------------------

    fn parse_inst(&mut self, raw: &str, rest: &str) -> Result<(), AsmError> {
        let col = Self::col_of(raw, rest);
        let (mnemonic, args) = match rest.find(char::is_whitespace) {
            Some(p) => (&rest[..p], rest[p..].trim()),
            None => (rest, ""),
        };
        let ops: Vec<&str> = if args.is_empty() {
            Vec::new()
        } else {
            split_operands(args).collect()
        };
        let m = mnemonic.to_ascii_lowercase();

        let expect = |n: usize| -> Result<(), AsmError> {
            if ops.len() == n {
                Ok(())
            } else {
                Err(AsmError {
                    line: self.line,
                    col,
                    kind: AsmErrorKind::OperandCount {
                        mnemonic: mnemonic.to_string(),
                        expected: n,
                        got: ops.len(),
                    },
                })
            }
        };

        match m.as_str() {
            "nop" => {
                expect(0)?;
                self.b.nop();
            }
            "halt" => {
                expect(0)?;
                self.b.halt();
            }
            "add" | "sub" | "mul" | "xor" | "and" | "or" => {
                expect(3)?;
                let rd = self.reg(raw, ops[0])?;
                let ra = self.reg(raw, ops[1])?;
                let rb = self.reg(raw, ops[2])?;
                self.b.inst(match m.as_str() {
                    "add" => Inst::Add { rd, ra, rb },
                    "sub" => Inst::Sub { rd, ra, rb },
                    "mul" => Inst::Mul { rd, ra, rb },
                    "xor" => Inst::Xor { rd, ra, rb },
                    "and" => Inst::And { rd, ra, rb },
                    _ => Inst::Or { rd, ra, rb },
                });
            }
            "addi" => {
                expect(3)?;
                let rd = self.reg(raw, ops[0])?;
                let rs = self.reg(raw, ops[1])?;
                let imm = self.eval(raw, ops[2])?;
                self.b.addi(rd, rs, imm);
            }
            "slli" | "srli" => {
                expect(3)?;
                let rd = self.reg(raw, ops[0])?;
                let rs = self.reg(raw, ops[1])?;
                let sh = self.eval(raw, ops[2])?;
                if !(0..=63).contains(&sh) {
                    return Err(self.err(
                        Self::col_of(raw, ops[2]),
                        AsmErrorKind::ImmOverflow(format!("shift amount {sh} (0..=63)")),
                    ));
                }
                if m == "slli" {
                    self.b.slli(rd, rs, sh as u8);
                } else {
                    self.b.srli(rd, rs, sh as u8);
                }
            }
            "li" => {
                expect(2)?;
                let rd = self.reg(raw, ops[0])?;
                let imm = self.eval(raw, ops[1])?;
                self.b.li(rd, imm);
            }
            "load" | "store" => {
                expect(2)?;
                let r = self.reg(raw, ops[0])?;
                let (offset, base) = self.mem_operand(raw, ops[1])?;
                if m == "load" {
                    self.b.load(r, base, offset);
                } else {
                    self.b.store(r, base, offset);
                }
            }
            "beq" | "bne" | "blt" | "bge" => {
                expect(3)?;
                let ra = self.reg(raw, ops[0])?;
                let rb = self.reg(raw, ops[1])?;
                let label = self.branch_label(raw, ops[2])?;
                match m.as_str() {
                    "beq" => self.b.beq(ra, rb, label),
                    "bne" => self.b.bne(ra, rb, label),
                    "blt" => self.b.blt(ra, rb, label),
                    _ => self.b.bge(ra, rb, label),
                };
            }
            "jmp" => {
                expect(1)?;
                let label = self.branch_label(raw, ops[0])?;
                self.b.jmp(label);
            }
            _ => return Err(self.err(col, AsmErrorKind::UnknownMnemonic(mnemonic.to_string()))),
        }
        self.emitted += 1;
        Ok(())
    }

    fn branch_label(&mut self, raw: &str, op: &str) -> Result<Label, AsmError> {
        let col = Self::col_of(raw, op);
        if !is_ident(op) {
            return Err(self.err(
                col,
                AsmErrorKind::BadOperand(format!("`{op}` is not a valid label name")),
            ));
        }
        Ok(self.use_label(op, col))
    }

    fn reg(&self, raw: &str, op: &str) -> Result<Reg, AsmError> {
        parse_reg(op).ok_or_else(|| {
            self.err(
                Self::col_of(raw, op),
                AsmErrorKind::UnknownRegister(op.to_string()),
            )
        })
    }

    /// Parses `offset(base)` / `(base)` memory operands; the offset is a
    /// full expression, so `(N-1)*8(r2)` works.
    fn mem_operand(&self, raw: &str, op: &str) -> Result<(i64, Reg), AsmError> {
        let col = Self::col_of(raw, op);
        let bad = |why: &str| {
            self.err(
                col,
                AsmErrorKind::BadOperand(format!("`{op}` is not offset(base): {why}")),
            )
        };
        let inner_end = match op.strip_suffix(')') {
            Some(head) => head,
            None => return Err(bad("missing `)`")),
        };
        let open = match inner_end.rfind('(') {
            Some(p) => p,
            None => return Err(bad("missing `(`")),
        };
        let base = self.reg(raw, inner_end[open + 1..].trim())?;
        let off_src = inner_end[..open].trim();
        let offset = if off_src.is_empty() {
            0
        } else {
            self.eval(raw, off_src)?
        };
        Ok((offset, base))
    }

    // -- expressions ------------------------------------------------------

    /// Evaluates a constant expression: integer literals (decimal or
    /// `0x` hex, `_` separators allowed), named constants, unary `-`,
    /// parentheses, and the operators `*`, `+`, `-`, `<<`, `>>` (usual
    /// precedence). All arithmetic is checked; overflow is a positioned
    /// [`AsmErrorKind::ImmOverflow`].
    fn eval(&self, raw: &str, src: &str) -> Result<i64, AsmError> {
        let col = Self::col_of(raw, src);
        if src.trim().is_empty() {
            return Err(self.err(col, AsmErrorKind::BadOperand("empty expression".into())));
        }
        let mut p = ExprParser {
            asm: self,
            raw,
            src,
            pos: 0,
        };
        let v = p.shift_expr()?;
        p.skip_ws();
        if p.pos < p.src.len() {
            return Err(self.err(
                Self::col_of(raw, &src[p.pos..]),
                AsmErrorKind::BadOperand(format!("trailing `{}` in expression", &src[p.pos..])),
            ));
        }
        Ok(v)
    }
}

struct ExprParser<'a> {
    asm: &'a Assembler,
    raw: &'a str,
    src: &'a str,
    pos: usize,
}

impl ExprParser<'_> {
    fn skip_ws(&mut self) {
        while self.src[self.pos..].starts_with(char::is_whitespace) {
            self.pos += 1;
        }
    }

    fn here_col(&self) -> u32 {
        Assembler::col_of(self.raw, &self.src[self.pos.min(self.src.len())..])
    }

    fn overflow(&self) -> AsmError {
        self.asm.err(
            Assembler::col_of(self.raw, self.src),
            AsmErrorKind::ImmOverflow(format!("`{}` exceeds 64-bit range", self.src.trim())),
        )
    }

    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(tok) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    fn shift_expr(&mut self) -> Result<i64, AsmError> {
        let mut v = self.add_expr()?;
        loop {
            if self.eat("<<") {
                let s = self.add_expr()?;
                if !(0..=63).contains(&s) {
                    return Err(self.overflow());
                }
                v = v.checked_shl(s as u32).ok_or_else(|| self.overflow())?;
            } else if self.eat(">>") {
                let s = self.add_expr()?;
                if !(0..=63).contains(&s) {
                    return Err(self.overflow());
                }
                // logical shift, matching srli
                v = ((v as u64) >> s) as i64;
            } else {
                return Ok(v);
            }
        }
    }

    fn add_expr(&mut self) -> Result<i64, AsmError> {
        let mut v = self.mul_expr()?;
        loop {
            // careful: `<<` must not be consumed as two failed `<`s, and
            // only single `+`/`-` are operators here
            if self.eat("+") {
                v = v
                    .checked_add(self.mul_expr()?)
                    .ok_or_else(|| self.overflow())?;
            } else if self.eat("-") {
                v = v
                    .checked_sub(self.mul_expr()?)
                    .ok_or_else(|| self.overflow())?;
            } else {
                return Ok(v);
            }
        }
    }

    fn mul_expr(&mut self) -> Result<i64, AsmError> {
        let mut v = self.factor()?;
        while self.eat("*") {
            v = v
                .checked_mul(self.factor()?)
                .ok_or_else(|| self.overflow())?;
        }
        Ok(v)
    }

    fn factor(&mut self) -> Result<i64, AsmError> {
        self.skip_ws();
        if self.eat("-") {
            return self.factor()?.checked_neg().ok_or_else(|| self.overflow());
        }
        if self.eat("(") {
            let v = self.shift_expr()?;
            if !self.eat(")") {
                return Err(self.asm.err(
                    self.here_col(),
                    AsmErrorKind::BadOperand("expected `)`".into()),
                ));
            }
            return Ok(v);
        }
        let rest = &self.src[self.pos..];
        let tok_len = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == 'x' || c == 'X'))
            .unwrap_or(rest.len());
        let tok = &rest[..tok_len];
        if tok.is_empty() {
            return Err(self.asm.err(
                self.here_col(),
                AsmErrorKind::BadOperand(format!("expected a value, found `{rest}`")),
            ));
        }
        let col = self.here_col();
        self.pos += tok.len();
        if tok.starts_with(|c: char| c.is_ascii_digit()) {
            let clean: String = tok.chars().filter(|&c| c != '_').collect();
            let parsed = if let Some(hex) = clean.strip_prefix("0x").or(clean.strip_prefix("0X")) {
                i128::from_str_radix(hex, 16).ok()
            } else {
                clean.parse::<i128>().ok()
            };
            match parsed {
                // literals are read as unsigned 64-bit patterns: anything in
                // [0, u64::MAX] fits, larger (or unparseable) overflows
                Some(v) if v <= u64::MAX as i128 => Ok(v as u64 as i64),
                _ => Err(self.asm.err(
                    col,
                    AsmErrorKind::ImmOverflow(format!("literal `{tok}` exceeds 64-bit range")),
                )),
            }
        } else if is_ident(tok) {
            self.asm.syms.get(tok).copied().ok_or_else(|| {
                self.asm
                    .err(col, AsmErrorKind::UnknownSymbol(tok.to_string()))
            })
        } else {
            Err(self
                .asm
                .err(col, AsmErrorKind::BadOperand(format!("`{tok}`"))))
        }
    }
}

impl Assembler {
    fn finish(mut self) -> Result<Program, AsmError> {
        if self.emitted == 0 {
            return Err(AsmError {
                line: 1,
                col: 1,
                kind: AsmErrorKind::EmptyProgram,
            });
        }
        // every referenced label must be bound, and bound in range
        for name in &self.label_order {
            let st = &self.labels[name];
            match (st.bound, st.used_at) {
                (None, Some((line, col))) => {
                    return Err(AsmError {
                        line,
                        col,
                        kind: AsmErrorKind::UnknownLabel(name.clone()),
                    })
                }
                (Some(idx), Some(_)) if idx >= self.emitted => {
                    let (line, col) = st.def_at.expect("bound labels record their definition");
                    return Err(AsmError {
                        line,
                        col,
                        kind: AsmErrorKind::LabelPastEnd(name.clone()),
                    });
                }
                _ => {}
            }
        }
        let extents: Vec<(u64, usize)> = self
            .segments
            .iter()
            .map(|(b, w, _)| (*b, w.len()))
            .collect();
        if let Some((i, j)) = first_conflict(&extents) {
            let ((a, _, _), (b, _, (line, col))) = (&self.segments[i], &self.segments[j]);
            let what = if i == j {
                format!(".data {b:#x} runs past the end of the address space")
            } else {
                format!(".data {b:#x} overlaps the segment at {a:#x}")
            };
            return Err(AsmError {
                line: *line,
                col: *col,
                kind: AsmErrorKind::BadOperand(what),
            });
        }
        for (base, words, _) in self.segments {
            if !words.is_empty() {
                self.b.init_words_iter(base, words);
            }
        }
        let p = self.b.finish();
        Ok(match self.name {
            Some(name) => p.renamed(name),
            None => p,
        })
    }
}

// ---------------------------------------------------------------------------
// lexical helpers
// ---------------------------------------------------------------------------

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_reg(s: &str) -> Option<Reg> {
    let t = s.trim();
    let digits = t.strip_prefix('r').or(t.strip_prefix('R'))?;
    if digits.is_empty() || digits.len() > 2 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Reg::from_index(digits.parse().ok()?)
}

/// `label:` at the start of `s` → `(label, rest-after-colon)`.
fn split_label_def(s: &str) -> Option<(&str, &str)> {
    let colon = s.find(':')?;
    let (head, tail) = (&s[..colon], &s[colon + 1..]);
    if is_ident(head) {
        Some((head, tail))
    } else {
        None
    }
}

/// Splits a comma-separated operand list, keeping parenthesized groups
/// (memory operands, expression parens) intact.
fn split_operands(s: &str) -> impl Iterator<Item = &str> {
    let mut pieces = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                pieces.push(s[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    pieces.push(s[start..].trim());
    pieces.into_iter()
}

// ---------------------------------------------------------------------------
// disassembler
// ---------------------------------------------------------------------------

/// Renders `p` as assembly source that [`assemble`] maps back to an
/// identical program (same name, instructions, and data image). Branch
/// targets become synthetic labels `L{index}`.
pub fn disassemble(p: &Program) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, ".name {}", p.name());
    for (base, words) in p.data() {
        let _ = writeln!(out, ".data {base:#x}");
        for chunk in words.chunks(8) {
            let line: Vec<String> = chunk.iter().map(|w| w.to_string()).collect();
            let _ = writeln!(out, ".word {}", line.join(", "));
        }
    }
    let mut labelled = vec![false; p.len()];
    for inst in p.insts() {
        if let Some(t) = inst.branch_target() {
            labelled[t] = true;
        }
    }
    for (idx, inst) in p.insts().iter().enumerate() {
        if labelled[idx] {
            let _ = writeln!(out, "L{idx}:");
        }
        let _ = writeln!(out, "    {}", render_inst(*inst));
    }
    out
}

fn render_inst(i: Inst) -> String {
    match i {
        Inst::Nop => "nop".into(),
        Inst::Halt => "halt".into(),
        Inst::Add { rd, ra, rb } => format!("add {rd}, {ra}, {rb}"),
        Inst::Sub { rd, ra, rb } => format!("sub {rd}, {ra}, {rb}"),
        Inst::Mul { rd, ra, rb } => format!("mul {rd}, {ra}, {rb}"),
        Inst::Xor { rd, ra, rb } => format!("xor {rd}, {ra}, {rb}"),
        Inst::And { rd, ra, rb } => format!("and {rd}, {ra}, {rb}"),
        Inst::Or { rd, ra, rb } => format!("or {rd}, {ra}, {rb}"),
        Inst::AddI { rd, rs, imm } => format!("addi {rd}, {rs}, {imm}"),
        Inst::SllI { rd, rs, sh } => format!("slli {rd}, {rs}, {sh}"),
        Inst::SrlI { rd, rs, sh } => format!("srli {rd}, {rs}, {sh}"),
        Inst::LoadImm { rd, imm } => format!("li {rd}, {imm}"),
        Inst::Load { rd, base, offset } => format!("load {rd}, {offset}({base})"),
        Inst::Store { rs, base, offset } => format!("store {rs}, {offset}({base})"),
        Inst::Beq { ra, rb, target } => format!("beq {ra}, {rb}, L{target}"),
        Inst::Bne { ra, rb, target } => format!("bne {ra}, {rb}, L{target}"),
        Inst::Blt { ra, rb, target } => format!("blt {ra}, {rb}, L{target}"),
        Inst::Bge { ra, rb, target } => format!("bge {ra}, {rb}, L{target}"),
        Inst::Jmp { target } => format!("jmp L{target}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ArchState;

    fn kind(src: &str) -> (u32, u32, AsmErrorKind) {
        let e = assemble(src).expect_err("should fail");
        (e.line, e.col, e.kind)
    }

    #[test]
    fn assembles_the_module_example() {
        let p = assemble(
            ".name sum16\n\
             .equ  N 16\n\
             .data 0x10000\n\
             .word 1, 2, 3, 4\n\
             .zero N\n\
             li r1, 0x10000\n\
             li r2, 0x10000 + N*8\n\
             li r3, 0\n\
             top: load r4, 0(r1)\n\
             add r3, r3, r4\n\
             addi r1, r1, 8\n\
             blt r1, r2, top\n\
             halt\n",
        )
        .unwrap();
        assert_eq!(p.name(), "sum16");
        assert_eq!(p.len(), 8);
        assert_eq!(p.data().len(), 1);
        assert_eq!(p.data()[0].1.len(), 20);
        let mut s = ArchState::new(&p);
        s.run(&p, 1000);
        assert!(s.halted());
        assert_eq!(s.reg(Reg::R3), 1 + 2 + 3 + 4);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let p = assemble(
            "; full-line comment\n\
             # hash comment\n\
             \n\
             nop // trailing\n\
             halt ; done\n",
        )
        .unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn forward_and_backward_labels_resolve() {
        let p = assemble(
            "jmp fwd\n\
             back: halt\n\
             fwd: jmp back\n",
        )
        .unwrap();
        assert_eq!(p.inst(0), Inst::Jmp { target: 2 });
        assert_eq!(p.inst(2), Inst::Jmp { target: 1 });
    }

    #[test]
    fn expressions_evaluate_with_precedence() {
        let p = assemble("li r1, 1 + 2*3\nli r2, (1+2)*3\nli r3, 1 << 4 + 1\nhalt\n").unwrap();
        assert_eq!(
            p.inst(0),
            Inst::LoadImm {
                rd: Reg::R1,
                imm: 7
            }
        );
        assert_eq!(
            p.inst(1),
            Inst::LoadImm {
                rd: Reg::R2,
                imm: 9
            }
        );
        // shift binds loosest: 1 << (4+1)
        assert_eq!(
            p.inst(2),
            Inst::LoadImm {
                rd: Reg::R3,
                imm: 32
            }
        );
    }

    #[test]
    fn mem_operand_allows_expressions_and_bare_base() {
        let p = assemble(".equ S 8\nload r1, (4-1)*S(r2)\nstore r1, (r3)\nhalt\n").unwrap();
        assert_eq!(
            p.inst(0),
            Inst::Load {
                rd: Reg::R1,
                base: Reg::R2,
                offset: 24
            }
        );
        assert_eq!(
            p.inst(1),
            Inst::Store {
                rs: Reg::R1,
                base: Reg::R3,
                offset: 0
            }
        );
    }

    #[test]
    fn predefined_symbols_beat_defaults_but_not_equ() {
        let p = assemble_with(".default N 1\nli r1, N\nhalt\n", &[("N", 7)]).unwrap();
        assert_eq!(
            p.inst(0),
            Inst::LoadImm {
                rd: Reg::R1,
                imm: 7
            }
        );
        let e = assemble_with(".equ N 1\nhalt\n", &[("N", 7)]).unwrap_err();
        assert_eq!(e.kind, AsmErrorKind::DuplicateSymbol("N".into()));
    }

    #[test]
    fn error_unknown_mnemonic_is_positioned() {
        let (line, col, k) = kind("nop\n  frobnicate r1\n");
        assert_eq!((line, col), (2, 3));
        assert_eq!(k, AsmErrorKind::UnknownMnemonic("frobnicate".into()));
    }

    #[test]
    fn error_duplicate_label() {
        let (line, _, k) = kind("x: nop\nx: halt\n");
        assert_eq!(line, 2);
        assert_eq!(k, AsmErrorKind::DuplicateLabel("x".into()));
    }

    #[test]
    fn error_undefined_label_points_at_first_use() {
        let (line, col, k) = kind("nop\njmp nowhere\nhalt\n");
        assert_eq!((line, col), (2, 5));
        assert_eq!(k, AsmErrorKind::UnknownLabel("nowhere".into()));
    }

    #[test]
    fn error_label_past_end() {
        let (line, _, k) = kind("jmp end\nnop\nend:\n");
        assert_eq!(line, 3);
        assert_eq!(k, AsmErrorKind::LabelPastEnd("end".into()));
    }

    #[test]
    fn error_operand_count() {
        let (line, _, k) = kind("add r1, r2\n");
        assert_eq!(line, 1);
        assert_eq!(
            k,
            AsmErrorKind::OperandCount {
                mnemonic: "add".into(),
                expected: 3,
                got: 2
            }
        );
    }

    #[test]
    fn error_immediate_overflow() {
        let (_, _, k) = kind("li r1, 99999999999999999999999999\nhalt\n");
        assert!(matches!(k, AsmErrorKind::ImmOverflow(_)), "{k:?}");
        let (_, _, k) = kind("slli r1, r1, 64\nhalt\n");
        assert!(matches!(k, AsmErrorKind::ImmOverflow(_)), "{k:?}");
        let (_, _, k) = kind(".equ HUGE 1<<62\nli r1, HUGE * 8\nhalt\n");
        assert!(matches!(k, AsmErrorKind::ImmOverflow(_)), "{k:?}");
    }

    #[test]
    fn u64_address_literals_fit() {
        let p = assemble("li r1, 0xffff_ffff_ffff_ffff\nhalt\n").unwrap();
        assert_eq!(
            p.inst(0),
            Inst::LoadImm {
                rd: Reg::R1,
                imm: -1
            }
        );
    }

    #[test]
    fn error_unknown_register_and_symbol() {
        let (_, col, k) = kind("add r1, r2, r99\n");
        assert_eq!(col, 13);
        assert_eq!(k, AsmErrorKind::UnknownRegister("r99".into()));
        let (_, _, k) = kind("li r1, NOPE\nhalt\n");
        assert_eq!(k, AsmErrorKind::UnknownSymbol("NOPE".into()));
    }

    #[test]
    fn error_empty_program_and_unknown_directive() {
        let (_, _, k) = kind("; nothing but comments\n");
        assert_eq!(k, AsmErrorKind::EmptyProgram);
        let (_, _, k) = kind(".bogus 1\nhalt\n");
        assert_eq!(k, AsmErrorKind::UnknownDirective(".bogus".into()));
    }

    #[test]
    fn error_fill_overflow_guard() {
        let (_, _, k) = kind(".data 0x1000\n.zero 1<<40\nhalt\n");
        assert!(matches!(k, AsmErrorKind::ImmOverflow(_)), "{k:?}");
    }

    #[test]
    fn error_overlapping_data_segments() {
        let src = ".data 0x1000\n.word 1, 2\n.data 0x1008\n.word 3\nhalt\n";
        assert_eq!(
            kind(src),
            (
                3,
                7,
                AsmErrorKind::BadOperand(".data 0x1008 overlaps the segment at 0x1000".into())
            )
        );
        // touching is not overlapping, and an empty segment covers nothing
        assert!(
            assemble(".data 0x1000\n.word 1\n.data 0x1008\n.word 3\n.data 0x1000\nhalt\n").is_ok()
        );
    }

    #[test]
    fn display_formats_position() {
        let e = assemble("bogus\n").unwrap_err();
        let msg = e.to_string();
        assert!(msg.starts_with("1:1:"), "{msg}");
        assert!(msg.contains("bogus"), "{msg}");
    }

    #[test]
    fn disassemble_round_trips_a_program() {
        let src = ".name rt\n\
                   .data 0x9000\n\
                   .word 5, 6, 7\n\
                   li r1, 0x9000\n\
                   top: load r2, 8(r1)\n\
                   addi r2, r2, -1\n\
                   bne r2, r0, top\n\
                   halt\n";
        let p = assemble(src).unwrap();
        let rt = assemble(&disassemble(&p)).unwrap();
        assert_eq!(p.name(), rt.name());
        assert_eq!(p.insts(), rt.insts());
        assert_eq!(p.data(), rt.data());
    }
}
