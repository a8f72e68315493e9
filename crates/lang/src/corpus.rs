//! A corpus of PPD programs shared by tests, examples and benchmarks.
//!
//! The corpus contains (a) the exact programs of the paper's worked
//! figures (4.1, 5.3, 6.1), (b) classic parallel workloads (bounded
//! buffer, bank transfers, dining philosophers, token ring) in race-free
//! and racy variants, and (c) parameterized generators for the
//! benchmark sweeps of EXPERIMENTS.md.

use crate::resolve::{compile, ResolvedProgram};

/// A named corpus entry.
#[derive(Debug, Clone, Copy)]
pub struct CorpusProgram {
    /// Short unique name (used in benchmark tables).
    pub name: &'static str,
    /// What the program exercises.
    pub description: &'static str,
    /// The source text.
    pub source: &'static str,
    /// Whether the program is expected to contain a data race.
    pub has_race: bool,
    /// Whether the program can deadlock under some schedules.
    pub may_deadlock: bool,
}

impl CorpusProgram {
    /// Parses and resolves this corpus program.
    ///
    /// # Panics
    ///
    /// Panics if the corpus entry fails to compile — corpus entries are
    /// maintained alongside the grammar and must always be valid.
    pub fn compile(&self) -> ResolvedProgram {
        match compile(self.source) {
            Ok(p) => p,
            Err(e) => panic!("corpus program `{}` failed to compile: {e}", self.name),
        }
    }
}

/// The program fragment of the paper's **Figure 4.1**, embedded in a
/// process. Statement numbering follows the paper: s1..s6 are the six
/// statements of the fragment. `SubD` takes three parameters; the third
/// argument at the call site is the expression `a + b + c`, which the
/// dynamic graph renders as a fictional `%3` node. `sqrt` is an integer
/// square root defined in-source (the paper treats it as a system
/// subroutine).
pub const FIG_4_1: CorpusProgram = CorpusProgram {
    name: "fig41",
    description: "paper Figure 4.1: dynamic graph worked example",
    source: r#"
shared int out;

int sqrt(int x) {
    int r = 0;
    while ((r + 1) * (r + 1) <= x) {
        r = r + 1;
    }
    return r;
}

int SubD(int p1, int p2, int p3) {
    return p3 - p1 * p2;
}

process Main {
    int a = input();        /* s1 */
    int b = input();        /* s2 */
    int c = input();        /* s3 */
    int d;
    int sq;
    d = SubD(a, b, a + b + c);    /* s4: third actual is an expression -> %3 node */
    if (d > 0) {                  /* s5 */
        sq = sqrt(d);
    } else {
        sq = sqrt(0 - d);
    }
    a = a + sq;                   /* s6 */
    out = a;
    print(out);
}
"#,
    has_race: false,
    may_deadlock: false,
};

/// The subroutine of the paper's **Figure 5.3**: `foo3` accesses a shared
/// variable `SV` under nested conditionals; its simplified static graph
/// has three synchronization units. Two processes call it so the shared
/// accesses matter.
pub const FIG_5_3: CorpusProgram = CorpusProgram {
    name: "fig53",
    description: "paper Figure 5.3: foo3 / simplified static graph / sync units",
    source: r#"
shared int SV = 10;
sem guard = 1;

int foo3(int p, int q) {
    int a = 1;
    int b = 2;
    int c = 3;
    if (p == 1) {
        if (q == 1) {
            c = a + b;
        } else {
            c = a - b;
        }
    } else {
        SV = a + b + SV;
    }
    return c;
}

process P1 {
    p(guard);
    int r = foo3(0, 1);
    v(guard);
    print(r);
}

process P2 {
    p(guard);
    int r = foo3(1, 0);
    v(guard);
    print(r);
}
"#,
    has_race: false,
    may_deadlock: false,
};

/// The three-process message-passing program of the paper's **Figure
/// 6.1 / §6.3**: a shared variable `SV` written on edge e1 (process P1),
/// written again on edge e2 (P2), and read on edge e3 (P3). P1's blocking
/// send to P3 creates the n3→n4 synchronization edge and the n4→n5
/// unblocking edge. The two writes and the read are concurrent: both the
/// write/write (e1,e2) and write/read (e2,e3) pairs race, while (e1,e3)
/// is ordered through the message.
pub const FIG_6_1: CorpusProgram = CorpusProgram {
    name: "fig61",
    description: "paper Figure 6.1 / 6.3: parallel dynamic graph and race",
    source: r#"
shared int SV;

process P1 {
    SV = 1;          /* e1: write SV */
    send(P3, 42);    /* n3: blocking send; unblock is n5 */
    print(1);
}

process P2 {
    SV = 2;          /* e2: concurrent write: races with e1 and e3 */
    print(2);
}

process P3 {
    int m;
    recv(m);         /* n4 */
    int x = SV;      /* e3: read SV; ordered after e1, races with e2 */
    print(x + m);
}
"#,
    has_race: true,
    may_deadlock: false,
};

/// Bounded-buffer producer/consumer, correctly synchronized with
/// counting semaphores — race-free under every schedule.
pub const PRODUCER_CONSUMER: CorpusProgram = CorpusProgram {
    name: "prodcons",
    description: "bounded buffer with semaphores (race-free)",
    source: r#"
shared int buf[4];
shared int in_pos;
shared int out_pos;
shared int consumed_total;
sem slots = 4;
sem items = 0;
sem mutex = 1;

process Producer {
    int i;
    for (i = 1; i <= 8; i = i + 1) {
        p(slots);
        p(mutex);
        buf[in_pos % 4] = i;
        in_pos = in_pos + 1;
        v(mutex);
        v(items);
    }
}

process Consumer {
    int i;
    int got;
    for (i = 0; i < 8; i = i + 1) {
        p(items);
        p(mutex);
        got = buf[out_pos % 4];
        out_pos = out_pos + 1;
        v(mutex);
        v(slots);
        consumed_total = consumed_total + got;
    }
    print(consumed_total);
}
"#,
    has_race: false,
    may_deadlock: false,
};

/// Producer/consumer where the index update escaped the critical
/// section — the classic lost-update race.
pub const PRODUCER_CONSUMER_RACY: CorpusProgram = CorpusProgram {
    name: "prodcons_racy",
    description: "bounded buffer with a lost-update race on the counter",
    source: r#"
shared int counter;
sem items = 0;

process Producer {
    int i;
    for (i = 0; i < 5; i = i + 1) {
        counter = counter + 1;   /* unprotected RMW */
        v(items);
    }
}

process Consumer {
    int i;
    for (i = 0; i < 5; i = i + 1) {
        p(items);
        counter = counter - 1;   /* unprotected RMW: races with Producer */
    }
    print(counter);
}
"#,
    has_race: true,
    may_deadlock: false,
};

/// Two tellers transferring between accounts under a lock — race-free.
pub const BANK: CorpusProgram = CorpusProgram {
    name: "bank",
    description: "bank transfers under a lock (race-free)",
    source: r#"
shared int accounts[4];
shared int audit_total;
lockvar ledger;

void init_accounts() {
    int i;
    for (i = 0; i < 4; i = i + 1) {
        accounts[i] = 100;
    }
}

void transfer(int from, int to, int amount) {
    lock(ledger);
    if (accounts[from] >= amount) {
        accounts[from] = accounts[from] - amount;
        accounts[to] = accounts[to] + amount;
    }
    unlock(ledger);
}

process Setup {
    lock(ledger);
    init_accounts();
    unlock(ledger);
    send(TellerA, 1);
    send(TellerB, 1);
}

process TellerA {
    int go;
    recv(go);
    int i;
    for (i = 0; i < 6; i = i + 1) {
        transfer(0, 1, 10);
    }
    send(Audit, 1);
}

process TellerB {
    int go;
    recv(go);
    int i;
    for (i = 0; i < 6; i = i + 1) {
        transfer(1, 2, 5);
    }
    send(Audit, 1);
}

process Audit {
    int a;
    int b;
    recv(a);
    recv(b);
    lock(ledger);
    audit_total = accounts[0] + accounts[1] + accounts[2] + accounts[3];
    unlock(ledger);
    assert(audit_total == 400);
    print(audit_total);
}
"#,
    has_race: false,
    may_deadlock: false,
};

/// Bank transfers where one teller forgets the lock — write/write races
/// on the accounts array, and the audit can observe a torn total.
pub const BANK_RACY: CorpusProgram = CorpusProgram {
    name: "bank_racy",
    description: "bank transfers with a missing lock (racy)",
    source: r#"
shared int accounts[2];
lockvar ledger;

process TellerA {
    int i;
    for (i = 0; i < 4; i = i + 1) {
        lock(ledger);
        accounts[0] = accounts[0] + 1;
        unlock(ledger);
    }
    print(accounts[0]);
}

process TellerB {
    int i;
    for (i = 0; i < 4; i = i + 1) {
        accounts[0] = accounts[0] + 1;   /* no lock: races */
    }
    print(accounts[0]);
}
"#,
    has_race: true,
    may_deadlock: false,
};

/// Two dining philosophers acquiring forks in opposite order —
/// deadlocks under the adversarial schedule, completes under others.
pub const DINING_PHILOSOPHERS: CorpusProgram = CorpusProgram {
    name: "phils",
    description: "two philosophers, opposite fork order (may deadlock)",
    source: r#"
shared int meals;
sem fork0 = 1;
sem fork1 = 1;

process PhilA {
    p(fork0);
    p(fork1);
    meals = meals + 1;
    v(fork1);
    v(fork0);
}

process PhilB {
    p(fork1);
    p(fork0);
    meals = meals + 1;
    v(fork0);
    v(fork1);
}
"#,
    // Both philosophers hold both forks while updating `meals`, so in any
    // completed execution the updates are ordered through the fork
    // semaphores: race-free (but deadlock-prone).
    has_race: false,
    may_deadlock: true,
};

/// The classic receive-receive cycle: two processes each wait for the
/// other's greeting before sending their own, so every schedule parks
/// both on their mailboxes. `ppd lint` reports the cycle statically as
/// PPD008 (the wait-for graph over MHP-concurrent blocking waits), and
/// bench E4 runs it to exercise the race scan over the partial dynamic
/// graph a deadlocked execution leaves behind.
pub const DEADLOCK: CorpusProgram = CorpusProgram {
    name: "deadlock",
    description: "cross-mailbox receive cycle (deadlocks every schedule; PPD008)",
    source: r#"
process Ping {
    int greeting;
    recv(greeting);
    send(Pong, greeting + 1);
}

process Pong {
    int greeting;
    recv(greeting);
    send(Ping, greeting + 1);
}
"#,
    has_race: false,
    may_deadlock: true,
};

/// A ring of three processes passing a token with blocking messages.
pub const TOKEN_RING: CorpusProgram = CorpusProgram {
    name: "token_ring",
    description: "three-process message ring (deterministic, race-free)",
    source: r#"
process Ring0 {
    send(Ring1, 1);
    int t;
    recv(t);
    print(t);
}

process Ring1 {
    int t;
    recv(t);
    send(Ring2, t + 1);
}

process Ring2 {
    int t;
    recv(t);
    send(Ring0, t + 1);
}
"#,
    has_race: false,
    may_deadlock: false,
};

/// Recursive quicksort over a shared array, sequential inside one
/// process — exercises recursion, arrays and deep call nesting.
pub const QUICKSORT: CorpusProgram = CorpusProgram {
    name: "quicksort",
    description: "recursive quicksort (deep e-block nesting)",
    source: r#"
shared int data[16];
shared int sorted_flag;

void swap(int i, int j) {
    int t = data[i];
    data[i] = data[j];
    data[j] = t;
}

int partition(int lo, int hi) {
    int pivot = data[hi];
    int i = lo;
    int j;
    for (j = lo; j < hi; j = j + 1) {
        if (data[j] < pivot) {
            swap(i, j);
            i = i + 1;
        }
    }
    swap(i, hi);
    return i;
}

void qsort_range(int lo, int hi) {
    if (lo < hi) {
        int mid = partition(lo, hi);
        qsort_range(lo, mid - 1);
        qsort_range(mid + 1, hi);
    }
}

process Main {
    int i;
    for (i = 0; i < 16; i = i + 1) {
        data[i] = (i * 7 + 3) % 16;
    }
    qsort_range(0, 15);
    sorted_flag = 1;
    for (i = 1; i < 16; i = i + 1) {
        if (data[i - 1] > data[i]) {
            sorted_flag = 0;
        }
    }
    assert(sorted_flag == 1);
    print(sorted_flag);
}
"#,
    has_race: false,
    may_deadlock: false,
};

/// A compute-heavy nested-loop kernel (blocked matrix-multiply shape)
/// used for the logging-overhead experiment E9.
pub const MATMUL: CorpusProgram = CorpusProgram {
    name: "matmul",
    description: "nested-loop arithmetic kernel (logging overhead, E9)",
    source: r#"
shared int result;

int dot(int row, int col, int n) {
    int acc = 0;
    int k;
    for (k = 0; k < n; k = k + 1) {
        acc = acc + (row * k + 1) * (col + k);
    }
    return acc;
}

process Main {
    int n = 12;
    int i;
    int j;
    int total = 0;
    for (i = 0; i < n; i = i + 1) {
        for (j = 0; j < n; j = j + 1) {
            total = total + dot(i, j, n);
        }
    }
    result = total;
    print(result);
}
"#,
    has_race: false,
    may_deadlock: false,
};

/// Rendezvous-based server and two clients (§6.2.3 shape).
pub const RENDEZVOUS_SERVER: CorpusProgram = CorpusProgram {
    name: "rendezvous",
    description: "Ada-style rendezvous: one server, two clients",
    source: r#"
shared int served;

process Server {
    accept (x) {
        served = served + x;
    }
    accept (y) {
        served = served + y;
    }
    print(served);
}

process ClientA {
    rendezvous(Server, 10);
}

process ClientB {
    rendezvous(Server, 32);
}
"#,
    has_race: false,
    may_deadlock: false,
};

/// A division-by-zero failure at the end of a causal chain crossing a
/// function call — the flowback-analysis demo program.
pub const FLOWBACK_DEMO: CorpusProgram = CorpusProgram {
    name: "flowback_demo",
    description: "bug whose failure is far from its cause (flowback demo)",
    source: r#"
shared int out;

int scale(int base, int factor) {
    int scaled = base * factor;
    return scaled;
}

process Main {
    int reading = input();
    int calibration = reading - reading;   /* bug: always 0, meant reading - 1 */
    int gain = scale(calibration, 100);
    int samples = input();
    int work = samples + 1;
    work = work * 2;
    out = work / gain;                      /* failure: division by zero */
    print(out);
}
"#,
    has_race: false,
    may_deadlock: false,
};

/// Readers–writers with a mutex-protected reader count and a
/// room-empty semaphore — the classic pattern, race-free: every read of
/// `data` is ordered against every write through the semaphore chain.
pub const READERS_WRITERS: CorpusProgram = CorpusProgram {
    name: "readers_writers",
    description: "readers-writers with reader count (race-free)",
    source: r#"
shared int data;
shared int readers;
shared int observed_total;
sem mutex = 1;
sem roomempty = 1;

void start_read() {
    p(mutex);
    readers = readers + 1;
    if (readers == 1) {
        p(roomempty);
    }
    v(mutex);
}

void end_read() {
    p(mutex);
    readers = readers - 1;
    if (readers == 0) {
        v(roomempty);
    }
    v(mutex);
}

process Writer {
    int i;
    for (i = 0; i < 3; i = i + 1) {
        p(roomempty);
        data = data + 10;
        v(roomempty);
    }
}

process ReaderA {
    int i;
    for (i = 0; i < 3; i = i + 1) {
        start_read();
        observed_total = observed_total + 0 * data;
        int seen = data;
        end_read();
        assert(seen % 10 == 0);
    }
    print(1);
}

process ReaderB {
    int i;
    for (i = 0; i < 2; i = i + 1) {
        start_read();
        int seen = data;
        end_read();
        assert(seen % 10 == 0);
    }
    print(2);
}
"#,
    has_race: false,
    may_deadlock: false,
};

/// A three-stage message pipeline: deterministic output regardless of
/// schedule.
pub const PIPELINE: CorpusProgram = CorpusProgram {
    name: "pipeline",
    description: "three-stage message pipeline (deterministic)",
    source: r#"
process Source {
    int i;
    for (i = 1; i <= 4; i = i + 1) {
        send(Square, i);
    }
    send(Square, 0 - 1);
}

process Square {
    int going = 1;
    while (going) {
        int x;
        recv(x);
        if (x < 0) {
            going = 0;
            send(Sink, 0 - 1);
        } else {
            send(Sink, x * x);
        }
    }
}

process Sink {
    int total = 0;
    int going = 1;
    while (going) {
        int y;
        recv(y);
        if (y < 0) {
            going = 0;
        } else {
            total = total + y;
        }
    }
    assert(total == 30);
    print(total);
}
"#,
    has_race: false,
    may_deadlock: false,
};

/// Fork/join parallel sum: workers read disjoint halves of a shared
/// array (reads only — race-free at variable granularity only because
/// the array is never written concurrently) and send partial sums to a
/// reducer.
pub const PARALLEL_SUM: CorpusProgram = CorpusProgram {
    name: "parallel_sum",
    description: "fork/join partial sums over a shared array (race-free)",
    source: r#"
shared int values[8];

int range_sum(int lo, int hi) {
    int acc = 0;
    int i;
    for (i = lo; i < hi; i = i + 1) {
        acc = acc + values[i];
    }
    return acc;
}

process Init {
    int i;
    for (i = 0; i < 8; i = i + 1) {
        values[i] = i + 1;
    }
    send(WorkerLo, 1);
    send(WorkerHi, 1);
}

process WorkerLo {
    int go;
    recv(go);
    send(Reducer, range_sum(0, 4));
}

process WorkerHi {
    int go;
    recv(go);
    send(Reducer, range_sum(4, 8));
}

process Reducer {
    int a;
    int b;
    recv(a);
    recv(b);
    assert(a + b == 36);
    print(a + b);
}
"#,
    has_race: false,
    may_deadlock: false,
};

/// All fixed corpus programs.
pub fn all() -> Vec<CorpusProgram> {
    vec![
        FIG_4_1,
        FIG_5_3,
        FIG_6_1,
        PRODUCER_CONSUMER,
        PRODUCER_CONSUMER_RACY,
        BANK,
        BANK_RACY,
        DINING_PHILOSOPHERS,
        DEADLOCK,
        TOKEN_RING,
        QUICKSORT,
        MATMUL,
        RENDEZVOUS_SERVER,
        FLOWBACK_DEMO,
        READERS_WRITERS,
        PIPELINE,
        PARALLEL_SUM,
    ]
}

/// The subset of the corpus that terminates under every scheduler
/// (excludes programs that may deadlock).
pub fn terminating() -> Vec<CorpusProgram> {
    all().into_iter().filter(|p| !p.may_deadlock).collect()
}

/// Generates a single-process loop-heavy program whose main loop runs
/// `iters` iterations calling a leaf function — the E3/E9 sweep workload.
pub fn gen_loop_heavy(iters: u32) -> String {
    format!(
        r#"
shared int result;

int step(int x) {{
    int y = x * 3 + 1;
    if (y % 2 == 0) {{
        y = y / 2;
    }}
    return y;
}}

process Main {{
    int acc = 7;
    int i;
    for (i = 0; i < {iters}; i = i + 1) {{
        acc = step(acc) % 1000003;
    }}
    result = acc;
    print(result);
}}
"#
    )
}

/// Generates a program with `depth` nested calls, where the bug is
/// planted at the deepest frame — the E6 flowback-latency workload.
pub fn gen_deep_calls(depth: u32) -> String {
    let mut src = String::from("shared int out;\n");
    src.push_str("int f0(int x) { int r = x + 1; return r; }\n");
    for d in 1..=depth {
        let prev = d - 1;
        src.push_str(&format!(
            "int f{d}(int x) {{ int m = x * 2; int r = f{prev}(m % 97); return r + 1; }}\n"
        ));
    }
    src.push_str(&format!(
        "process Main {{ int seed = input(); out = f{depth}(seed); print(out); }}\n"
    ));
    src
}

/// Generates `n` worker processes that each do `iters` unprotected
/// increments of a shared counter — a race-density workload for E4.
pub fn gen_racy_workers(n: u32, iters: u32) -> String {
    let mut src = String::from("shared int counter;\nsem done = 0;\n");
    for w in 0..n {
        src.push_str(&format!(
            "process W{w} {{ int i; for (i = 0; i < {iters}; i = i + 1) \
             {{ counter = counter + 1; }} v(done); }}\n"
        ));
    }
    src.push_str(&format!(
        "process Join {{ int i; for (i = 0; i < {n}; i = i + 1) {{ p(done); }} \
         print(counter); }}\n"
    ));
    src
}

/// Generates a bounded-buffer producer/consumer moving `items` items —
/// the E9 synchronization-heavy workload at adjustable scale.
pub fn gen_prodcons(items: u32) -> String {
    format!(
        r#"
shared int buf[8];
shared int in_pos;
shared int out_pos;
shared int consumed_total;
sem slots = 8;
sem items = 0;
sem mutex = 1;

process Producer {{
    int i;
    for (i = 1; i <= {items}; i = i + 1) {{
        p(slots);
        p(mutex);
        buf[in_pos % 8] = i;
        in_pos = in_pos + 1;
        v(mutex);
        v(items);
    }}
}}

process Consumer {{
    int i;
    int got;
    for (i = 0; i < {items}; i = i + 1) {{
        p(items);
        p(mutex);
        got = buf[out_pos % 8];
        out_pos = out_pos + 1;
        v(mutex);
        v(slots);
        consumed_total = consumed_total + got;
    }}
    print(consumed_total);
}}
"#
    )
}

/// Generates a lock-protected bank with `transfers` transfers per teller.
pub fn gen_bank(transfers: u32) -> String {
    format!(
        r#"
shared int accounts[4];
shared int audit_total;
lockvar ledger;

void transfer(int from, int to, int amount) {{
    lock(ledger);
    if (accounts[from] >= amount) {{
        accounts[from] = accounts[from] - amount;
        accounts[to] = accounts[to] + amount;
    }}
    unlock(ledger);
}}

process Setup {{
    lock(ledger);
    int i;
    for (i = 0; i < 4; i = i + 1) {{
        accounts[i] = 1000000;
    }}
    unlock(ledger);
    send(TellerA, 1);
    send(TellerB, 1);
}}

process TellerA {{
    int go;
    recv(go);
    int i;
    for (i = 0; i < {transfers}; i = i + 1) {{
        transfer(0, 1, 10);
    }}
    send(Audit, 1);
}}

process TellerB {{
    int go;
    recv(go);
    int i;
    for (i = 0; i < {transfers}; i = i + 1) {{
        transfer(1, 2, 5);
    }}
    send(Audit, 1);
}}

process Audit {{
    int a;
    int b;
    recv(a);
    recv(b);
    lock(ledger);
    audit_total = accounts[0] + accounts[1] + accounts[2] + accounts[3];
    unlock(ledger);
    assert(audit_total == 4000000);
    print(audit_total);
}}
"#
    )
}

/// Generates a 3-process token ring doing `laps` laps.
pub fn gen_token_ring(laps: u32) -> String {
    format!(
        r#"
process Ring0 {{
    int lap;
    int t;
    for (lap = 0; lap < {laps}; lap = lap + 1) {{
        send(Ring1, lap + 1);
        recv(t);
    }}
    print(t);
}}

process Ring1 {{
    int lap;
    int t;
    for (lap = 0; lap < {laps}; lap = lap + 1) {{
        recv(t);
        send(Ring2, t + 1);
    }}
}}

process Ring2 {{
    int lap;
    int t;
    for (lap = 0; lap < {laps}; lap = lap + 1) {{
        recv(t);
        send(Ring0, t + 1);
    }}
}}
"#
    )
}

/// Generates a quicksort over an array of `n` elements.
pub fn gen_quicksort(n: u32) -> String {
    format!(
        r#"
shared int data[{n}];
shared int sorted_flag;

void swap(int i, int j) {{
    int t = data[i];
    data[i] = data[j];
    data[j] = t;
}}

int partition(int lo, int hi) {{
    int pivot = data[hi];
    int i = lo;
    int j;
    for (j = lo; j < hi; j = j + 1) {{
        if (data[j] < pivot) {{
            swap(i, j);
            i = i + 1;
        }}
    }}
    swap(i, hi);
    return i;
}}

void qsort_range(int lo, int hi) {{
    if (lo < hi) {{
        int mid = partition(lo, hi);
        qsort_range(lo, mid - 1);
        qsort_range(mid + 1, hi);
    }}
}}

process Main {{
    int i;
    for (i = 0; i < {n}; i = i + 1) {{
        data[i] = (i * 7919 + 13) % {n};
    }}
    qsort_range(0, {n} - 1);
    sorted_flag = 1;
    for (i = 1; i < {n}; i = i + 1) {{
        if (data[i - 1] > data[i]) {{
            sorted_flag = 0;
        }}
    }}
    assert(sorted_flag == 1);
    print(sorted_flag);
}}
"#
    )
}

/// Generates a program with `n` variables all updated in one block —
/// stresses USED/DEFINED set sizes for the E5 varset ablation.
pub fn gen_wide_vars(n: u32) -> String {
    let mut src = String::new();
    for v in 0..n {
        src.push_str(&format!("shared int g{v};\n"));
    }
    src.push_str("process Main {\n");
    for v in 0..n {
        let prev = if v == 0 { n - 1 } else { v - 1 };
        src.push_str(&format!("    g{v} = g{prev} + {v};\n"));
    }
    src.push_str("    print(g0);\n}\n");
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_corpus_program_compiles() {
        for p in all() {
            let rp = p.compile();
            assert!(!rp.procs.is_empty(), "{} has no processes", p.name);
        }
    }

    #[test]
    fn corpus_names_are_unique() {
        let mut names: Vec<_> = all().iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all().len());
    }

    #[test]
    fn generators_compile() {
        for src in [
            gen_loop_heavy(5),
            gen_deep_calls(4),
            gen_racy_workers(3, 2),
            gen_wide_vars(10),
            gen_prodcons(6),
            gen_bank(4),
            gen_token_ring(3),
            gen_quicksort(12),
        ] {
            compile(&src).unwrap_or_else(|e| panic!("generated program invalid: {e}\n{src}"));
        }
    }

    #[test]
    fn every_corpus_program_type_checks() {
        // The Issue 6 acceptance bar: the whole corpus — fixed programs
        // and generator output alike — passes `ppd check` clean.
        for p in all() {
            let tc = crate::types::check(&p.compile());
            assert!(
                tc.is_ok(),
                "{} fails type check: {:?}",
                p.name,
                tc.errors.iter().map(|e| e.to_string()).collect::<Vec<_>>()
            );
        }
        for src in [
            gen_loop_heavy(5),
            gen_deep_calls(4),
            gen_racy_workers(3, 2),
            gen_wide_vars(10),
            gen_prodcons(6),
            gen_bank(4),
            gen_token_ring(3),
            gen_quicksort(12),
        ] {
            let rp = compile(&src).unwrap();
            let tc = crate::types::check(&rp);
            assert!(
                tc.is_ok(),
                "generated program fails type check: {:?}\n{src}",
                tc.errors.iter().map(|e| e.to_string()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn fig41_has_subd_and_sqrt() {
        let rp = FIG_4_1.compile();
        assert!(rp.func_by_name("SubD").is_some());
        assert!(rp.func_by_name("sqrt").is_some());
    }

    #[test]
    fn fig61_has_three_processes() {
        let rp = FIG_6_1.compile();
        assert_eq!(rp.procs.len(), 3);
        assert_eq!(rp.shared_count, 1);
    }
}
