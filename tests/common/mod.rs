//! Shared helpers for the integration-test suite: a deterministic
//! generator of always-valid single-process programs, driven by a byte
//! string (so proptest failures shrink well), and the slow race-scan
//! oracles in [`race_oracle`].
#![allow(dead_code)]

pub mod race_oracle;

/// Deterministic program generator: interprets `bytes` as a stream of
/// construction decisions for a single-process program over four
/// variables, with nested ifs and bounded loops.
pub struct Gen<'a> {
    bytes: &'a [u8],
    pos: usize,
    counters: usize,
}

impl<'a> Gen<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Gen { bytes, pos: 0, counters: 0 }
    }

    fn next(&mut self) -> u8 {
        if self.bytes.is_empty() {
            return 0;
        }
        let b = self.bytes[self.pos % self.bytes.len()];
        self.pos += 1;
        b
    }

    fn expr(&mut self, depth: u32) -> String {
        if depth == 0 {
            return match self.next() % 2 {
                0 => format!("{}", (self.next() as i64 % 9) - 4),
                _ => format!("v{}", self.next() % 4),
            };
        }
        match self.next() % 6 {
            0 => format!("{}", (self.next() as i64 % 9) - 4),
            1 => format!("v{}", self.next() % 4),
            2 => format!("({} + {})", self.expr(depth - 1), self.expr(depth - 1)),
            3 => format!("({} - {})", self.expr(depth - 1), self.expr(depth - 1)),
            4 => format!("({} * {})", self.expr(depth - 1), self.expr(depth - 1)),
            _ => format!("({} % 97 + 3)", self.expr(depth - 1)),
        }
    }

    fn stmts(&mut self, out: &mut String, indent: usize, budget: &mut u32, depth: u32) {
        let n = self.next() % 4 + 1;
        for _ in 0..n {
            if *budget == 0 {
                return;
            }
            *budget -= 1;
            let pad = "    ".repeat(indent);
            match self.next() % 5 {
                0 | 1 => {
                    let v = self.next() % 4;
                    let e = self.expr(2);
                    out.push_str(&format!("{pad}v{v} = {e};\n"));
                }
                2 if depth > 0 => {
                    let c = self.expr(1);
                    out.push_str(&format!("{pad}if ({c} > 0) {{\n"));
                    self.stmts(out, indent + 1, budget, depth - 1);
                    out.push_str(&format!("{pad}}} else {{\n"));
                    self.stmts(out, indent + 1, budget, depth - 1);
                    out.push_str(&format!("{pad}}}\n"));
                }
                3 if depth > 0 => {
                    let c = self.counters;
                    self.counters += 1;
                    let k = self.next() % 3 + 1;
                    out.push_str(&format!("{pad}int c{c} = 0;\n"));
                    out.push_str(&format!("{pad}while (c{c} < {k}) {{\n"));
                    self.stmts(out, indent + 1, budget, depth - 1);
                    out.push_str(&format!("{pad}    c{c} = c{c} + 1;\n"));
                    out.push_str(&format!("{pad}}}\n"));
                }
                _ => {
                    let e = self.expr(1);
                    out.push_str(&format!("{pad}print({e});\n"));
                }
            }
        }
    }

    pub fn program(mut self) -> String {
        let mut body = String::new();
        for v in 0..4 {
            let init = (self.next() as i64 % 19) - 9;
            body.push_str(&format!("    int v{v} = {init};\n"));
        }
        let mut budget = 24;
        self.stmts(&mut body, 1, &mut budget, 3);
        body.push_str("    out = v0 + v1 + v2 + v3;\n    print(out);\n");
        format!("shared int out;\n\nprocess Main {{\n{body}}}\n")
    }
}
