//! The `.debug_line` line-number program.
//!
//! DWARF does not store a plain (address, line) table; it stores a compact
//! *program* for a state machine whose registers are `address` and `line`.
//! Executing the program emits matrix rows. We implement the same design
//! (paper §III-A2 relies on exactly this DWARF mechanism to bridge source
//! and binary):
//!
//! | opcode | operand | effect |
//! |--------|---------|--------|
//! | `0x00` | —       | end of program |
//! | `0x01` | ULEB128 | `address += operand` |
//! | `0x02` | SLEB128 | `line += operand` |
//! | `0x03` | —       | copy: emit row `(address, line)` |

/// One row of the decoded line matrix: instructions at `addr` (up to the
/// next row's address) belong to source `line`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LineRow {
    pub addr: u32,
    pub line: u32,
}

/// Decoded line table with address → line lookup.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LineTable {
    rows: Vec<LineRow>,
}

/// Errors from [`LineTable::decode`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LineError {
    Truncated,
    BadOpcode(u8),
    /// Rows must be emitted in non-decreasing address order.
    UnsortedRows,
}

impl std::fmt::Display for LineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LineError::Truncated => write!(f, "truncated line program"),
            LineError::BadOpcode(op) => write!(f, "unknown line-program opcode {op:#x}"),
            LineError::UnsortedRows => write!(f, "line rows out of address order"),
        }
    }
}

impl std::error::Error for LineError {}

// ---- LEB128 ----

pub fn write_uleb(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let mut byte = (v & 0x7f) as u8;
        v >>= 7;
        if v != 0 {
            byte |= 0x80;
        }
        out.push(byte);
        if v == 0 {
            break;
        }
    }
}

pub fn read_uleb(buf: &[u8], pos: &mut usize) -> Result<u64, LineError> {
    let mut result: u64 = 0;
    let mut shift = 0;
    loop {
        let byte = *buf.get(*pos).ok_or(LineError::Truncated)?;
        *pos += 1;
        result |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(result);
        }
        shift += 7;
        if shift >= 64 {
            return Err(LineError::Truncated);
        }
    }
}

pub fn write_sleb(out: &mut Vec<u8>, mut v: i64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        let sign_clear = byte & 0x40 == 0;
        if (v == 0 && sign_clear) || (v == -1 && !sign_clear) {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

pub fn read_sleb(buf: &[u8], pos: &mut usize) -> Result<i64, LineError> {
    let mut result: i64 = 0;
    let mut shift = 0;
    loop {
        let byte = *buf.get(*pos).ok_or(LineError::Truncated)?;
        *pos += 1;
        result |= ((byte & 0x7f) as i64) << shift;
        shift += 7;
        if byte & 0x80 == 0 {
            if shift < 64 && byte & 0x40 != 0 {
                result |= -1i64 << shift; // sign extend
            }
            return Ok(result);
        }
        if shift >= 64 {
            return Err(LineError::Truncated);
        }
    }
}

mod op {
    pub const END: u8 = 0x00;
    pub const ADVANCE_PC: u8 = 0x01;
    pub const ADVANCE_LINE: u8 = 0x02;
    pub const COPY: u8 = 0x03;
}

/// Incremental encoder for the line-number program.
#[derive(Default)]
pub struct LineTableBuilder {
    program: Vec<u8>,
    cur_addr: u32,
    cur_line: u32,
    last_emitted: Option<(u32, u32)>,
}

impl LineTableBuilder {
    pub fn new() -> LineTableBuilder {
        LineTableBuilder::default()
    }

    /// Record that the instruction at `addr` belongs to source `line`.
    /// Rows must be added in non-decreasing address order; consecutive rows
    /// with the same line are merged.
    pub fn add_row(&mut self, addr: u32, line: u32) {
        assert!(
            addr >= self.cur_addr,
            "line rows must be added in address order ({addr} < {})",
            self.cur_addr
        );
        if let Some((_, last_line)) = self.last_emitted {
            if last_line == line {
                return; // still inside the same line's range
            }
        }
        if addr != self.cur_addr {
            self.program.push(op::ADVANCE_PC);
            write_uleb(&mut self.program, (addr - self.cur_addr) as u64);
            self.cur_addr = addr;
        }
        if line != self.cur_line {
            self.program.push(op::ADVANCE_LINE);
            write_sleb(&mut self.program, line as i64 - self.cur_line as i64);
            self.cur_line = line;
        }
        self.program.push(op::COPY);
        self.last_emitted = Some((addr, line));
    }

    /// Finish and return the encoded program bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.program.push(op::END);
        self.program
    }
}

impl LineTable {
    /// Execute a line-number program and collect the row matrix.
    pub fn decode(program: &[u8]) -> Result<LineTable, LineError> {
        let mut rows = Vec::new();
        let mut addr: u64 = 0;
        let mut line: i64 = 0;
        let mut pos = 0;
        loop {
            let opcode = *program.get(pos).ok_or(LineError::Truncated)?;
            pos += 1;
            match opcode {
                op::END => break,
                op::ADVANCE_PC => addr += read_uleb(program, &mut pos)?,
                op::ADVANCE_LINE => line += read_sleb(program, &mut pos)?,
                op::COPY => {
                    let row = LineRow {
                        addr: addr as u32,
                        line: line.max(0) as u32,
                    };
                    if let Some(last) = rows.last() {
                        let last: &LineRow = last;
                        if row.addr < last.addr {
                            return Err(LineError::UnsortedRows);
                        }
                    }
                    rows.push(row);
                }
                other => return Err(LineError::BadOpcode(other)),
            }
        }
        Ok(LineTable { rows })
    }

    pub fn rows(&self) -> &[LineRow] {
        &self.rows
    }

    /// The source line owning the instruction at `addr`, if any: the last
    /// row at or before `addr`.
    pub fn line_for_addr(&self, addr: u32) -> Option<u32> {
        match self.rows.binary_search_by_key(&addr, |r| r.addr) {
            Ok(i) => Some(self.rows[i].line),
            Err(0) => None,
            Err(i) => Some(self.rows[i - 1].line),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn leb128_roundtrip_known_values() {
        for v in [0u64, 1, 127, 128, 300, 16384, u32::MAX as u64] {
            let mut buf = Vec::new();
            write_uleb(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_uleb(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        for v in [
            0i64,
            1,
            -1,
            63,
            64,
            -64,
            -65,
            300,
            -300,
            i32::MAX as i64,
            i32::MIN as i64,
        ] {
            let mut buf = Vec::new();
            write_sleb(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_sleb(&buf, &mut pos).unwrap(), v, "v={v}");
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn build_and_decode() {
        let mut b = LineTableBuilder::new();
        b.add_row(0, 10);
        b.add_row(5, 11);
        b.add_row(9, 11); // merged: same line
        b.add_row(20, 9); // line number can go backwards
        let table = LineTable::decode(&b.finish()).unwrap();
        assert_eq!(
            table.rows(),
            &[
                LineRow { addr: 0, line: 10 },
                LineRow { addr: 5, line: 11 },
                LineRow { addr: 20, line: 9 },
            ]
        );
    }

    #[test]
    fn lookup_semantics() {
        let mut b = LineTableBuilder::new();
        b.add_row(4, 1);
        b.add_row(10, 2);
        let t = LineTable::decode(&b.finish()).unwrap();
        assert_eq!(t.line_for_addr(0), None); // before first row
        assert_eq!(t.line_for_addr(4), Some(1));
        assert_eq!(t.line_for_addr(9), Some(1));
        assert_eq!(t.line_for_addr(10), Some(2));
        assert_eq!(t.line_for_addr(1000), Some(2));
    }

    #[test]
    fn decode_errors() {
        assert_eq!(LineTable::decode(&[]), Err(LineError::Truncated));
        assert_eq!(LineTable::decode(&[0x77]), Err(LineError::BadOpcode(0x77)));
        assert_eq!(
            LineTable::decode(&[super::op::ADVANCE_PC]),
            Err(LineError::Truncated)
        );
    }

    #[test]
    #[should_panic]
    fn builder_rejects_unsorted() {
        let mut b = LineTableBuilder::new();
        b.add_row(10, 1);
        b.add_row(5, 2);
    }

    proptest! {
        #[test]
        fn prop_uleb_roundtrip(v in any::<u64>()) {
            let mut buf = Vec::new();
            write_uleb(&mut buf, v);
            let mut pos = 0;
            prop_assert_eq!(read_uleb(&buf, &mut pos).unwrap(), v);
        }

        #[test]
        fn prop_sleb_roundtrip(v in any::<i64>()) {
            let mut buf = Vec::new();
            write_sleb(&mut buf, v);
            let mut pos = 0;
            prop_assert_eq!(read_sleb(&buf, &mut pos).unwrap(), v);
        }

        #[test]
        fn prop_table_roundtrip(
            rows in proptest::collection::vec((0u32..1000, 1u32..500), 1..40)
        ) {
            // sort and dedup addresses to satisfy builder preconditions
            let mut rows = rows;
            rows.sort_by_key(|r| r.0);
            rows.dedup_by_key(|r| r.0);
            let mut b = LineTableBuilder::new();
            for (a, l) in &rows {
                b.add_row(*a, *l);
            }
            let t = LineTable::decode(&b.finish()).unwrap();
            // every input row's address must resolve to its line
            // (consecutive same-line rows merge, which lookup respects)
            for (a, l) in &rows {
                prop_assert_eq!(t.line_for_addr(*a), Some(*l));
            }
        }
    }
}
