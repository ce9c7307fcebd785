//! Design interchange: AIGER (binary and ASCII) and structural BLIF.
//!
//! This module turns the in-memory [`Aig`] into a design that can leave the
//! process and come back: the three formats every academic logic-synthesis
//! tool speaks (ABC, aigtools, mockturtle, Yosys).
//!
//! * **ASCII AIGER** (`.aag`) — the human-readable AIGER 1.9 subset for
//!   combinational circuits, written with a full symbol table.
//! * **Binary AIGER** (`.aig`) — the compact delta-coded format used for
//!   benchmark distribution (HWMCC, EPFL suites).
//! * **Structural BLIF** (`.blif`) — `.model`/`.inputs`/`.outputs`/`.names`
//!   with sum-of-products covers; the writer emits pure AND2/buffer covers,
//!   the reader accepts arbitrary single-output covers (up to
//!   [`MAX_COVER_INPUTS`] inputs per `.names`).
//!
//! All readers build through [`Aig::and`], so imported designs are structurally
//! hashed and constant-propagated on the way in; a design written by this
//! module reads back **node-for-node identical** (same node order, same
//! literals), which the round-trip tests pin down.  Latches are rejected:
//! the reproduction models combinational synthesis only, matching the paper's
//! use of combinational QoR metrics.
//!
//! ```
//! use aig::Aig;
//! use aig::io::{parse_aag, write_aag};
//!
//! let mut g = Aig::with_name("maj");
//! let a = g.add_input("a");
//! let b = g.add_input("b");
//! let c = g.add_input("c");
//! let m = g.maj(a, b, c);
//! g.add_output("m", m);
//!
//! let text = write_aag(&g);
//! let back = parse_aag(&text).unwrap();
//! assert_eq!(back.num_ands(), g.num_ands());
//! assert_eq!(back.input_name(2), "c");
//! ```

mod aag;
mod binary;
mod blif;

pub use aag::{parse_aag, write_aag};
pub use binary::{parse_aiger_binary, write_aiger_binary};
pub use blif::{parse_blif, write_blif, MAX_COVER_INPUTS};

use std::path::Path;

use crate::{Aig, Lit};

/// Errors produced while reading or writing design files.
#[derive(Debug)]
pub enum IoError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The header or body violates the format specification.
    Parse {
        /// 1-based line number (0 for binary-section errors).
        line: usize,
        /// Human-readable description of the violation.
        message: String,
    },
    /// The design uses a feature this reproduction does not model
    /// (latches / sequential elements, multi-output covers, …).
    Unsupported(String),
    /// The file extension (or content) matches no supported format.
    UnknownFormat(String),
}

impl IoError {
    pub(crate) fn parse(line: usize, message: impl Into<String>) -> Self {
        IoError::Parse {
            line,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, message } if *line == 0 => write!(f, "parse error: {message}"),
            IoError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            IoError::Unsupported(what) => write!(f, "unsupported design feature: {what}"),
            IoError::UnknownFormat(what) => write!(f, "unknown design format: {what}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Result alias for design I/O.
pub type IoResult<T> = std::result::Result<T, IoError>;

/// A supported design-interchange format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// ASCII AIGER (`.aag`).
    AigerAscii,
    /// Binary AIGER (`.aig`).
    AigerBinary,
    /// Structural BLIF (`.blif`).
    Blif,
}

impl Format {
    /// All formats in a stable order.
    pub const ALL: [Format; 3] = [Format::AigerAscii, Format::AigerBinary, Format::Blif];

    /// The canonical file extension (without the dot).
    pub fn extension(self) -> &'static str {
        match self {
            Format::AigerAscii => "aag",
            Format::AigerBinary => "aig",
            Format::Blif => "blif",
        }
    }

    /// The format whose [`extension`](Format::extension) is `ext` (exactly:
    /// `aag`, `aig` or `blif`).
    pub fn from_extension(ext: &str) -> Option<Format> {
        Format::ALL.into_iter().find(|f| f.extension() == ext)
    }

    /// Resolves a format from a file path's extension (in any case).
    pub fn from_path(path: &Path) -> IoResult<Format> {
        let ext = path
            .extension()
            .and_then(|e| e.to_str())
            .unwrap_or_default()
            .to_ascii_lowercase();
        Format::from_extension(&ext).ok_or_else(|| {
            IoError::UnknownFormat(format!(
                "cannot infer format from `{}` (expected .aag, .aig or .blif)",
                path.display()
            ))
        })
    }

    /// Sniffs a format from file content (used when the extension is absent).
    pub fn from_content(bytes: &[u8]) -> IoResult<Format> {
        if bytes.starts_with(b"aag ") {
            Ok(Format::AigerAscii)
        } else if bytes.starts_with(b"aig ") {
            Ok(Format::AigerBinary)
        } else if bytes.iter().take(4096).any(|&b| b == b'.') {
            // BLIF files start with comments or a dot-command.
            Ok(Format::Blif)
        } else {
            Err(IoError::UnknownFormat(
                "content matches neither AIGER nor BLIF".into(),
            ))
        }
    }
}

impl std::fmt::Display for Format {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.extension())
    }
}

/// Reads a design from `path`, inferring the format from the extension and
/// falling back to content sniffing for unknown extensions.
pub fn read_design(path: impl AsRef<Path>) -> IoResult<Aig> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)?;
    let format = Format::from_path(path).or_else(|_| Format::from_content(&bytes))?;
    parse_design(&bytes, format)
}

/// Parses a design from raw bytes in an explicit format.
pub fn parse_design(bytes: &[u8], format: Format) -> IoResult<Aig> {
    match format {
        Format::AigerBinary => parse_aiger_binary(bytes),
        Format::AigerAscii => parse_aag(text_of(bytes)?),
        Format::Blif => parse_blif(text_of(bytes)?),
    }
}

/// Writes a design to `path` in the format implied by the extension.
pub fn write_design(path: impl AsRef<Path>, aig: &Aig) -> IoResult<()> {
    let path = path.as_ref();
    let format = Format::from_path(path)?;
    std::fs::write(path, render_design(aig, format))?;
    Ok(())
}

/// Renders a design to bytes in an explicit format.
pub fn render_design(aig: &Aig, format: Format) -> Vec<u8> {
    match format {
        Format::AigerBinary => write_aiger_binary(aig),
        Format::AigerAscii => write_aag(aig).into_bytes(),
        Format::Blif => write_blif(aig).into_bytes(),
    }
}

fn text_of(bytes: &[u8]) -> IoResult<&str> {
    std::str::from_utf8(bytes).map_err(|e| IoError::parse(0, format!("file is not UTF-8: {e}")))
}

/// Replaces line-structure characters in a symbol or design name so the
/// line-oriented AIGER writers always produce re-parsable files.
pub(crate) fn sanitize_line(name: &str) -> std::borrow::Cow<'_, str> {
    if name.contains(['\n', '\r']) {
        std::borrow::Cow::Owned(name.replace(['\n', '\r'], "_"))
    } else {
        std::borrow::Cow::Borrowed(name)
    }
}

// ---------------------------------------------------------------------------
// Shared writer-side numbering and reader-side graph assembly
// ---------------------------------------------------------------------------

/// AIGER variable numbering of a graph: inputs take variables `1..=I` in PI
/// order, AND nodes take `I+1..=M` in topological (node-id) order.  The
/// constant is variable 0, exactly as in the in-memory literal encoding.
pub(crate) struct VarMap {
    /// `var[node_id]` — the AIGER variable index of each node.
    var: Vec<u32>,
    /// Node ids of AND gates in AIGER (= topological) order.
    ands: Vec<usize>,
}

impl VarMap {
    pub(crate) fn new(aig: &Aig) -> Self {
        let mut var = vec![0u32; aig.len()];
        for (i, &id) in aig.input_ids().iter().enumerate() {
            var[id] = (i + 1) as u32;
        }
        let ands: Vec<usize> = aig.and_ids().collect();
        let num_inputs = aig.num_inputs() as u32;
        for (i, &id) in ands.iter().enumerate() {
            var[id] = num_inputs + 1 + i as u32;
        }
        VarMap { var, ands }
    }

    /// Maximum variable index (`M` of the AIGER header).
    pub(crate) fn max_var(&self, aig: &Aig) -> u32 {
        (aig.num_inputs() + self.ands.len()) as u32
    }

    /// The AIGER literal of an in-memory literal.
    pub(crate) fn lit(&self, l: Lit) -> u32 {
        self.var[l.node()] << 1 | l.is_complemented() as u32
    }

    /// AND-gate node ids in emission order.
    pub(crate) fn and_ids(&self) -> &[usize] {
        &self.ands
    }
}

/// A parsed AIGER file before graph assembly: raw literals plus symbols.
pub(crate) struct RawAiger {
    pub(crate) max_var: u32,
    pub(crate) num_inputs: u32,
    /// `(lhs_var, rhs0_lit, rhs1_lit)` per AND gate, in file order.
    pub(crate) ands: Vec<(u32, u32, u32)>,
    pub(crate) outputs: Vec<u32>,
    pub(crate) input_names: Vec<Option<String>>,
    pub(crate) output_names: Vec<Option<String>>,
    pub(crate) name: Option<String>,
}

impl RawAiger {
    /// Assembles the parsed file into an [`Aig`].
    ///
    /// Literals are validated (every referenced variable must be the constant,
    /// an input, or an AND defined earlier in the file), and construction goes
    /// through [`Aig::and`], so duplicate or trivial gates in the file are
    /// structurally hashed away.  The graph and its strash are sized for
    /// every declared node up front — the constant, the inputs and the gates
    /// already read — so a reservation never exceeds what assembly would
    /// allocate anyway.
    pub(crate) fn build(self) -> IoResult<Aig> {
        let mut aig = Aig::with_name(self.name.as_deref().unwrap_or("aiger"));
        aig.reserve_for(
            1 + self.num_inputs as usize + self.ands.len(),
            self.ands.len(),
        );
        // `lit_of[var]` — the in-memory literal for each defined AIGER variable.
        let mut lit_of: Vec<Option<Lit>> = vec![None; self.max_var as usize + 1];
        lit_of[0] = Some(Lit::FALSE);
        for i in 0..self.num_inputs {
            let name = self
                .input_names
                .get(i as usize)
                .cloned()
                .flatten()
                .unwrap_or_else(|| format!("i{i}"));
            lit_of[i as usize + 1] = Some(aig.add_input(name));
        }
        let resolve = |lit_of: &[Option<Lit>], raw: u32| -> IoResult<Lit> {
            let var = raw >> 1;
            let lit = lit_of
                .get(var as usize)
                .copied()
                .flatten()
                .ok_or_else(|| IoError::parse(0, format!("literal {raw} is not defined")))?;
            Ok(lit ^ (raw & 1 == 1))
        };
        for &(lhs_var, rhs0, rhs1) in &self.ands {
            match lit_of.get(lhs_var as usize) {
                None => {
                    return Err(IoError::parse(
                        0,
                        format!("AND variable {lhs_var} exceeds M"),
                    ))
                }
                Some(Some(_)) => {
                    return Err(IoError::parse(
                        0,
                        format!("variable {lhs_var} defined twice"),
                    ))
                }
                Some(None) => {}
            }
            let a = resolve(&lit_of, rhs0)?;
            let b = resolve(&lit_of, rhs1)?;
            let lit = aig.and(a, b);
            lit_of[lhs_var as usize] = Some(lit);
        }
        for (i, &raw) in self.outputs.iter().enumerate() {
            let lit = resolve(&lit_of, raw)?;
            let name = self
                .output_names
                .get(i)
                .cloned()
                .flatten()
                .unwrap_or_else(|| format!("o{i}"));
            aig.add_output(name, lit);
        }
        Ok(aig)
    }
}

/// Maximum variable (and output) count accepted in an AIGER header.
///
/// Graph assembly allocates one table slot per declared variable, so the
/// header must not be able to claim multi-billion counts: a hostile
/// `aag 4000000000 1 0 1 0` arriving over a socket would otherwise abort the
/// process on allocation before a single body byte is read.  `2^26` variables
/// is orders of magnitude beyond the paper's benchmark family.
pub const MAX_AIGER_VARS: u32 = 1 << 26;

/// Maximum accepted gap between `M` and `I + A` in an AIGER header.
///
/// The AIGER spec permits unused variable indices, but the gap directly sizes
/// the reader's variable table, so it must stay small relative to the
/// (content-bounded) input and gate counts.
const MAX_VAR_GAP: u64 = 4096;

/// Rejects headers whose declared counts could not possibly fit in the
/// remaining `body_len` bytes of the document.
///
/// Every definition costs at least a few bytes on disk (`counts` pairs each
/// claimed count with its minimum encoded size), so pre-sizing allocations
/// from a header that passes this check stays proportional to the real input
/// instead of to an attacker-chosen number.
pub(crate) fn check_counts_plausible(counts: &[(u32, u64)], body_len: usize) -> IoResult<()> {
    let need: u64 = counts
        .iter()
        .map(|&(n, min_bytes)| n as u64 * min_bytes)
        .sum();
    if need > body_len as u64 + 8 {
        return Err(IoError::parse(
            1,
            format!(
                "header claims at least {need} bytes of definitions, \
                 but only {body_len} bytes follow"
            ),
        ));
    }
    Ok(())
}

/// Parses the five-field AIGER header shared by both flavours.
///
/// Returns `(M, I, L, O, A)`; rejects sequential designs (`L > 0`) and
/// headers whose counts exceed [`MAX_AIGER_VARS`].
pub(crate) fn parse_aiger_header(line: &str, magic: &str) -> IoResult<(u32, u32, u32, u32, u32)> {
    let mut parts = line.split_ascii_whitespace();
    if parts.next() != Some(magic) {
        return Err(IoError::parse(1, format!("expected `{magic}` header")));
    }
    let mut field = |name: &str| -> IoResult<u32> {
        parts
            .next()
            .ok_or_else(|| IoError::parse(1, format!("missing header field {name}")))?
            .parse::<u32>()
            .map_err(|_| IoError::parse(1, format!("header field {name} is not a number")))
    };
    let m = field("M")?;
    let i = field("I")?;
    let l = field("L")?;
    let o = field("O")?;
    let a = field("A")?;
    if parts.next().is_some() {
        // AIGER 1.9 extends the header with B C J F counts; all must be zero
        // for a combinational circuit, so reject rather than misread.
        return Err(IoError::Unsupported(
            "AIGER 1.9 extension fields (B C J F)".into(),
        ));
    }
    if l != 0 {
        return Err(IoError::Unsupported(format!(
            "{l} latch(es); this reproduction is combinational-only"
        )));
    }
    if m > MAX_AIGER_VARS || o > MAX_AIGER_VARS {
        return Err(IoError::parse(
            1,
            format!("header claims {m} variables / {o} outputs (limit {MAX_AIGER_VARS})"),
        ));
    }
    // u64 arithmetic: I and A are individually unchecked, so their u32 sum
    // could wrap and sneak a hostile header past both bounds.
    let defined = i as u64 + a as u64;
    if (m as u64) < defined {
        return Err(IoError::parse(
            1,
            format!("header claims M = {m} < I + A = {defined}"),
        ));
    }
    if m as u64 > defined + MAX_VAR_GAP {
        return Err(IoError::parse(
            1,
            format!("header claims M = {m}, far beyond I + A = {defined}"),
        ));
    }
    Ok((m, i, l, o, a))
}

/// Parses one symbol-table line (`i0 name` / `o3 name`) into `raw`.
///
/// Returns `false` when the line starts the comment section instead.
pub(crate) fn apply_symbol_line(line: &str, line_no: usize, raw: &mut RawAiger) -> IoResult<bool> {
    if line == "c" {
        return Ok(false);
    }
    let (tag, name) = line
        .split_once(' ')
        .ok_or_else(|| IoError::parse(line_no, "malformed symbol line"))?;
    // `tag.split_at(1)` would panic on an empty tag or a multi-byte first
    // character; iterate by char so arbitrary bytes only ever produce errors.
    let mut tag_chars = tag.chars();
    let kind = tag_chars.next().unwrap_or(' ');
    let index: usize = tag_chars
        .as_str()
        .parse()
        .map_err(|_| IoError::parse(line_no, format!("bad symbol index in `{tag}`")))?;
    let slot = match kind {
        'i' => raw.input_names.get_mut(index),
        'o' => raw.output_names.get_mut(index),
        'l' => {
            return Err(IoError::Unsupported(
                "latch symbol in combinational design".into(),
            ))
        }
        _ => {
            return Err(IoError::parse(
                line_no,
                format!("unknown symbol tag `{tag}`"),
            ))
        }
    };
    match slot {
        Some(s) => *s = Some(name.to_string()),
        None => {
            return Err(IoError::parse(
                line_no,
                format!("symbol `{tag}` is out of range"),
            ))
        }
    }
    Ok(true)
}

#[cfg(test)]
pub(crate) mod tests_support {
    use crate::{Aig, Lit};

    /// A ripple-carry adder: a deterministic mid-size test graph.
    pub(crate) fn ripple_adder(bits: usize) -> Aig {
        let mut g = Aig::with_name(format!("add{bits}"));
        let a = g.add_inputs("a", bits);
        let b = g.add_inputs("b", bits);
        let mut carry = Lit::FALSE;
        let mut sum = Vec::with_capacity(bits + 1);
        for i in 0..bits {
            let s = g.xor(a[i], b[i]);
            sum.push(g.xor(s, carry));
            carry = g.maj(a[i], b[i], carry);
        }
        sum.push(carry);
        g.add_outputs("s", &sum);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_from_path_and_content() {
        assert_eq!(
            Format::from_path(Path::new("x/y.aag")).unwrap(),
            Format::AigerAscii
        );
        assert_eq!(
            Format::from_path(Path::new("y.AIG")).unwrap(),
            Format::AigerBinary
        );
        assert_eq!(
            Format::from_path(Path::new("z.blif")).unwrap(),
            Format::Blif
        );
        assert!(Format::from_path(Path::new("z.v")).is_err());
        for format in Format::ALL {
            assert_eq!(Format::from_extension(format.extension()), Some(format));
        }
        assert_eq!(Format::from_extension("AAG"), None);

        assert_eq!(
            Format::from_content(b"aag 1 1 0 1 0\n").unwrap(),
            Format::AigerAscii
        );
        assert_eq!(
            Format::from_content(b"aig 0 0 0 0 0\n").unwrap(),
            Format::AigerBinary
        );
        assert_eq!(
            Format::from_content(b"# comment\n.model m\n").unwrap(),
            Format::Blif
        );
        assert!(Format::from_content(b"module m;").is_err());
    }

    #[test]
    fn header_rejects_latches_and_garbage() {
        assert!(parse_aiger_header("aag 3 2 0 1 1", "aag").is_ok());
        assert!(matches!(
            parse_aiger_header("aag 3 2 1 1 0", "aag"),
            Err(IoError::Unsupported(_))
        ));
        assert!(parse_aiger_header("aag 3 2 0 1", "aag").is_err());
        assert!(parse_aiger_header("aig x 2 0 1 1", "aig").is_err());
        assert!(parse_aiger_header("aag 1 2 0 1 1", "aag").is_err());
    }
}
