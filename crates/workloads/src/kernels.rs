//! The 18 SPEC-CPU2006-inspired synthetic kernels.
//!
//! Each builder produces a [`Program`] whose *access-pattern class*,
//! *footprint* and *branch behaviour* match what the characterization
//! literature reports for its SPEC namesake. Footprints are scaled so the
//! memory-bound kernels exceed the 2 MB/core shared L3 at full scale while
//! the compute kernels stay cache-resident.

use bfetch_isa::{Program, ProgramBuilder, Reg};
use bfetch_prng::Pcg32;
use std::panic::RefUnwindSafe;

/// Workload footprint scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced footprints for unit/integration tests (fast).
    Small,
    /// Evaluation footprints (memory-bound kernels exceed the LLC).
    Full,
}

/// A synthetic benchmark kernel.
#[derive(Debug, Clone, Copy)]
pub struct Kernel {
    /// SPEC-style name.
    pub name: &'static str,
    /// Whether the kernel benefits from a perfect prefetcher (Figure 1's
    /// "prefetch sensitive" class).
    pub prefetch_sensitive: bool,
    /// Frequency-of-access score used by the FOA mix selection (higher =
    /// more off-core memory traffic; calibrated from solo profiling runs).
    pub foa: f64,
    pub(crate) build: fn(Scale) -> Program,
}

impl Kernel {
    /// Builds the kernel at the given scale.
    pub fn build(&self, scale: Scale) -> Program {
        (self.build)(scale)
    }

    /// Test-scale build.
    pub fn build_small(&self) -> Program {
        self.build(Scale::Small)
    }

    /// Evaluation-scale build.
    pub fn build_full(&self) -> Program {
        self.build(Scale::Full)
    }
}

#[inline]
fn sz(scale: Scale, full_bytes: u64) -> u64 {
    match scale {
        Scale::Full => full_bytes,
        Scale::Small => (full_bytes / 16).max(64 * 1024),
    }
}

/// A data segment of `bytes / 8` words at `base`, where word `i` is
/// `word(v)` of the `i`-th `next_u64` of the generator seeded `seed`.
/// Generated where it is read: a run of words positions a copy of the
/// generator with one jump.
fn random_words(
    b: &mut ProgramBuilder,
    base: u64,
    bytes: u64,
    seed: u64,
    word: impl Fn(u64) -> u64 + Send + Sync + RefUnwindSafe + 'static,
) {
    let r = Pcg32::new(seed);
    b.init_words_fill(base, (bytes / 8) as usize, move |first, out| {
        let mut g = r.clone();
        g.advance(2 * first as u64);
        out.fill_with(|| word(g.next_u64()));
    });
}

/// Emits a dependent ALU chain of `n` operations on (r28, r29) seeded from
/// `src` — per-iteration compute that bounds MLP the way real kernel bodies
/// do.
fn compute_chain(b: &mut ProgramBuilder, src: Reg, n: usize) {
    b.add(Reg::R28, Reg::R28, src);
    for i in 0..n {
        if i % 2 == 0 {
            b.xor(Reg::R29, Reg::R29, Reg::R28);
        } else {
            b.add(Reg::R28, Reg::R28, Reg::R29);
        }
    }
}

// ---------------------------------------------------------------------------
// streaming / stencil kernels
// ---------------------------------------------------------------------------

/// libquantum: one huge array of 8-byte quantum-register cells swept
/// element by element with a dependent update per cell — the most
/// prefetch-sensitive pattern in the suite. The tiny 8 B per-PC stride
/// gives a classic stride prefetcher almost no reach (8 × 8 B = one line),
/// while region- and loop-based prefetchers run far ahead.
fn libquantum(scale: Scale) -> Program {
    let bytes = sz(scale, 32 * 1024 * 1024);
    let mut b = ProgramBuilder::new("libquantum");
    let base = 0x100_0000u64;
    b.li(Reg::R1, base as i64);
    b.li(Reg::R2, (base + bytes) as i64);
    let top = b.label();
    b.bind(top);
    b.load(Reg::R4, Reg::R1, 0);
    compute_chain(&mut b, Reg::R4, 8);
    b.store(Reg::R28, Reg::R1, 0);
    b.addi(Reg::R1, Reg::R1, 8);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    b.finish()
}

/// lbm: lattice-Boltzmann style — three source streams and one destination
/// stream advance together, heavy per-site compute.
fn lbm(scale: Scale) -> Program {
    let bytes = sz(scale, 12 * 1024 * 1024);
    let mut b = ProgramBuilder::new("lbm");
    let a0 = 0x100_0000u64;
    let a1 = a0 + bytes;
    let a2 = a1 + bytes;
    let dst = a2 + bytes;
    b.li(Reg::R1, a0 as i64);
    b.li(Reg::R2, a1 as i64);
    b.li(Reg::R3, a2 as i64);
    b.li(Reg::R4, dst as i64);
    b.li(Reg::R5, (a0 + bytes) as i64);
    let top = b.label();
    b.bind(top);
    b.load(Reg::R10, Reg::R1, 0);
    b.load(Reg::R11, Reg::R2, 0);
    b.load(Reg::R12, Reg::R3, 0);
    b.add(Reg::R13, Reg::R10, Reg::R11);
    b.xor(Reg::R13, Reg::R13, Reg::R12);
    compute_chain(&mut b, Reg::R13, 16);
    b.store(Reg::R28, Reg::R4, 0);
    b.addi(Reg::R1, Reg::R1, 64);
    b.addi(Reg::R2, Reg::R2, 64);
    b.addi(Reg::R3, Reg::R3, 64);
    b.addi(Reg::R4, Reg::R4, 64);
    b.blt(Reg::R1, Reg::R5, top);
    b.halt();
    b.finish()
}

/// bwaves: five coupled streams at two strides, long dependent compute —
/// blocked-solver traffic.
fn bwaves(scale: Scale) -> Program {
    let bytes = sz(scale, 10 * 1024 * 1024);
    let mut b = ProgramBuilder::new("bwaves");
    let a0 = 0x100_0000u64;
    b.li(Reg::R1, a0 as i64);
    b.li(Reg::R2, (a0 + bytes) as i64);
    let top = b.label();
    b.bind(top);
    b.load(Reg::R10, Reg::R1, 0);
    b.load(Reg::R11, Reg::R1, 64);
    b.load(Reg::R12, Reg::R1, 128);
    compute_chain(&mut b, Reg::R10, 20);
    b.add(Reg::R28, Reg::R28, Reg::R11);
    b.xor(Reg::R28, Reg::R28, Reg::R12);
    b.addi(Reg::R1, Reg::R1, 192);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    b.finish()
}

/// leslie3d: 3-D stencil — neighbour loads at row and plane strides around
/// a sequentially advancing centre.
fn leslie3d(scale: Scale) -> Program {
    let bytes = sz(scale, 16 * 1024 * 1024);
    let plane = 128 * 1024u64;
    let row = 1024u64;
    let mut b = ProgramBuilder::new("leslie3d");
    let a0 = 0x100_0000u64 + plane; // keep neighbours in range
    b.li(Reg::R1, a0 as i64);
    b.li(Reg::R2, (a0 + bytes - plane) as i64);
    let top = b.label();
    b.bind(top);
    b.load(Reg::R10, Reg::R1, 0);
    b.load(Reg::R11, Reg::R1, row as i64);
    b.load(Reg::R13, Reg::R1, plane as i64);
    b.add(Reg::R15, Reg::R10, Reg::R11);
    b.add(Reg::R15, Reg::R15, Reg::R13);
    compute_chain(&mut b, Reg::R15, 14);
    b.store(Reg::R28, Reg::R1, 0);
    b.addi(Reg::R1, Reg::R1, 64);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    b.finish()
}

/// zeusmp: magnetohydrodynamics stencil — two arrays, 128 B stride, heavy
/// compute per site.
fn zeusmp(scale: Scale) -> Program {
    let bytes = sz(scale, 12 * 1024 * 1024);
    let mut b = ProgramBuilder::new("zeusmp");
    let a0 = 0x100_0000u64;
    let a1 = a0 + bytes;
    b.li(Reg::R1, a0 as i64);
    b.li(Reg::R2, a1 as i64);
    b.li(Reg::R3, (a0 + bytes) as i64);
    let top = b.label();
    b.bind(top);
    b.load(Reg::R10, Reg::R1, 0);
    b.load(Reg::R11, Reg::R2, 0);
    b.load(Reg::R12, Reg::R1, 64);
    compute_chain(&mut b, Reg::R10, 18);
    b.add(Reg::R28, Reg::R28, Reg::R11);
    b.add(Reg::R28, Reg::R28, Reg::R12);
    b.store(Reg::R28, Reg::R2, 0);
    b.addi(Reg::R1, Reg::R1, 128);
    b.addi(Reg::R2, Reg::R2, 128);
    b.blt(Reg::R1, Reg::R3, top);
    b.halt();
    b.finish()
}

/// cactusADM: Einstein-equation stencil — very large plane strides make
/// three widely separated concurrent streams.
fn cactus_adm(scale: Scale) -> Program {
    let bytes = sz(scale, 16 * 1024 * 1024);
    let plane = 256 * 1024u64;
    let row = 4 * 1024u64;
    let mut b = ProgramBuilder::new("cactusADM");
    let a0 = 0x100_0000u64 + plane;
    b.li(Reg::R1, a0 as i64);
    b.li(Reg::R2, (a0 + bytes - plane) as i64);
    let top = b.label();
    b.bind(top);
    b.load(Reg::R10, Reg::R1, 0);
    b.load(Reg::R11, Reg::R1, row as i64);
    b.load(Reg::R12, Reg::R1, plane as i64);
    compute_chain(&mut b, Reg::R10, 22);
    b.add(Reg::R28, Reg::R28, Reg::R11);
    b.xor(Reg::R28, Reg::R28, Reg::R12);
    b.store(Reg::R28, Reg::R1, 0);
    b.addi(Reg::R1, Reg::R1, 64);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    b.finish()
}

/// milc: lattice QCD — the paper's SMS-favourable corner case
/// (Section V-B1). Lattice sites (2 KB regions) are visited in a
/// *scattered* order — per-PC strides are useless and B-Fetch's learned
/// register offsets keep changing — but every visited site is touched at
/// eight fixed offsets spanning the whole region, far wider than B-Fetch's
/// ±5-block pos/negPatt reach. SMS's trigger-replayed spatial patterns are
/// the only mechanism that covers it.
fn milc(scale: Scale) -> Program {
    let bytes = sz(scale, 16 * 1024 * 1024);
    let regions = bytes / 2048; // power of two
    let mut b = ProgramBuilder::new("milc");
    let a0 = 0x100_0000u64;
    b.li(Reg::R1, 0); // site counter
    b.li(Reg::R2, regions as i64);
    b.li(Reg::R3, (regions - 1) as i64); // region mask
    b.li(Reg::R4, a0 as i64);
    b.li(Reg::R5, 0x9E37_79B9); // scatter multiplier
    b.li(Reg::R6, 3); // run mask: 4 consecutive sites per sweep run
    let top = b.label();
    b.bind(top);
    // piecewise-sequential site order: runs of 4 consecutive lattice
    // sites, with the runs themselves scattered — the per-run regularity
    // gives stride and loop-based prefetchers partial traction while the
    // run boundaries break them; SMS replays regardless.
    b.and(Reg::R7, Reg::R1, Reg::R6); // position within the run
    b.srli(Reg::R8, Reg::R1, 2);
    b.mul(Reg::R8, Reg::R8, Reg::R5); // scatter the run index
    b.and(Reg::R8, Reg::R8, Reg::R3);
    b.slli(Reg::R8, Reg::R8, 2);
    b.and(Reg::R8, Reg::R8, Reg::R3);
    b.add(Reg::R9, Reg::R8, Reg::R7);
    b.slli(Reg::R9, Reg::R9, 11);
    b.add(Reg::R9, Reg::R9, Reg::R4);
    // The eight su3-matrix loads of a site are serialized (each address
    // computation consumes the previous value, as real site processing
    // does), so covering the region *ahead of time* — SMS's specialty — is
    // the only way to hide their latency.
    b.load(Reg::R10, Reg::R9, 0);
    let mut prev = Reg::R10;
    for (i, off) in [64i64, 512, 576, 1024, 1088, 1536, 1600].iter().enumerate() {
        let dst = Reg::from_index(11 + i).expect("valid reg");
        b.and(Reg::R19, prev, Reg::R0); // always 0, but depends on prev load
        b.add(Reg::R20, Reg::R9, Reg::R19);
        b.load(dst, Reg::R20, *off);
        prev = dst;
    }
    b.add(Reg::R18, Reg::R10, Reg::R11);
    b.add(Reg::R18, Reg::R18, Reg::R12);
    b.add(Reg::R18, Reg::R18, Reg::R13);
    b.add(Reg::R18, Reg::R18, Reg::R14);
    b.add(Reg::R18, Reg::R18, Reg::R15);
    b.add(Reg::R18, Reg::R18, Reg::R16);
    b.add(Reg::R18, Reg::R18, Reg::R17);
    compute_chain(&mut b, Reg::R18, 12);
    b.addi(Reg::R1, Reg::R1, 1);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    b.finish()
}

/// hmmer: profile-HMM dynamic programming — three parallel table streams
/// at word granularity, row after row.
fn hmmer(scale: Scale) -> Program {
    let bytes = sz(scale, 8 * 1024 * 1024);
    let mut b = ProgramBuilder::new("hmmer");
    let m = 0x100_0000u64;
    let i = m + bytes;
    let d = i + bytes;
    b.li(Reg::R1, m as i64);
    b.li(Reg::R2, i as i64);
    b.li(Reg::R3, d as i64);
    b.li(Reg::R4, (m + bytes) as i64);
    let top = b.label();
    b.bind(top);
    b.load(Reg::R10, Reg::R1, 0);
    b.load(Reg::R11, Reg::R2, 0);
    b.load(Reg::R12, Reg::R3, 0);
    b.add(Reg::R13, Reg::R10, Reg::R11);
    compute_chain(&mut b, Reg::R13, 8);
    b.add(Reg::R28, Reg::R28, Reg::R12);
    b.store(Reg::R28, Reg::R1, 0);
    b.addi(Reg::R1, Reg::R1, 32);
    b.addi(Reg::R2, Reg::R2, 32);
    b.addi(Reg::R3, Reg::R3, 32);
    b.blt(Reg::R1, Reg::R4, top);
    b.halt();
    b.finish()
}

// ---------------------------------------------------------------------------
// irregular kernels
// ---------------------------------------------------------------------------

/// mcf: network-simplex — a sequential arc scan (three lines per arc) whose
/// records point into a node pool that is dereferenced per arc, plus a
/// data-dependent branch. The scan prefetches; the pointer chase resists.
fn mcf(scale: Scale) -> Program {
    let arcs_bytes = sz(scale, 12 * 1024 * 1024);
    let nodes_bytes = sz(scale, 16 * 1024 * 1024);
    let arc_stride = 192u64;
    let arcs = 0x100_0000u64;
    let nodes = arcs + arcs_bytes;
    let n_arcs = arcs_bytes / arc_stride;

    // arc records: word 0 = node offset (random), word 1 = weight, each
    // one `next_u64` (two draws) of one stream, arc after arc
    let r = Pcg32::new(0x6d6366);
    let arc_words = arc_stride / 8;
    let mut b = ProgramBuilder::new("mcf");
    b.init_words_fill(arcs, (arcs_bytes / 8) as usize, move |first, out| {
        let first = first as u64;
        // draws made before word `first`
        let (arc, k) = (first / arc_words, first % arc_words);
        let drawn = 4 * arc.min(n_arcs) + if arc < n_arcs { 2 * k.min(2) } else { 0 };
        let mut g = r.clone();
        g.advance(drawn);
        for (w, slot) in (first..).zip(out) {
            *slot = match (w / arc_words < n_arcs, w % arc_words) {
                (true, 0) => nodes + (g.next_u64() % (nodes_bytes / 64)) * 64,
                (true, 1) => g.next_u64(),
                _ => 0,
            };
        }
    });
    b.li(Reg::R1, arcs as i64);
    b.li(Reg::R2, (arcs + arcs_bytes) as i64);
    let top = b.label();
    let skip = b.label();
    b.bind(top);
    b.load(Reg::R10, Reg::R1, 0); // node pointer
    b.load(Reg::R11, Reg::R1, 8); // weight
    b.load(Reg::R12, Reg::R10, 0); // chase into the node pool
    b.li(Reg::R14, 31);
    b.and(Reg::R13, Reg::R11, Reg::R14);
    b.beq(Reg::R13, Reg::R14, skip); // ~3% taken, data-dependent
    compute_chain(&mut b, Reg::R12, 6);
    b.bind(skip);
    b.add(Reg::R28, Reg::R28, Reg::R12);
    b.addi(Reg::R1, Reg::R1, arc_stride as i64);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    b.finish()
}

/// astar: grid pathfinding — 64 B cell records scanned with data-dependent
/// skips and a moderately biased branch per cell.
fn astar(scale: Scale) -> Program {
    let bytes = sz(scale, 8 * 1024 * 1024);
    let cells = 0x100_0000u64;
    let mut b = ProgramBuilder::new("astar");
    random_words(&mut b, cells, bytes, 0x617374, |v| v);
    b.li(Reg::R1, cells as i64);
    b.li(Reg::R2, (cells + bytes) as i64);
    b.li(Reg::R5, 31);
    let top = b.label();
    let closed = b.label();
    b.bind(top);
    b.load(Reg::R10, Reg::R1, 0); // cell flags
    b.load(Reg::R11, Reg::R1, 8); // g-cost
    b.and(Reg::R12, Reg::R10, Reg::R5);
    b.beq(Reg::R12, Reg::R5, closed); // ~3% taken
    b.load(Reg::R13, Reg::R1, 16); // h-cost only for open cells
    b.add(Reg::R14, Reg::R11, Reg::R13);
    compute_chain(&mut b, Reg::R14, 6);
    b.bind(closed);
    // data-dependent skip distance (64..256 B): per-PC strides are
    // irregular, but B-Fetch's branch-time register + offset still pins the
    // next cell's address exactly
    b.srli(Reg::R15, Reg::R10, 3);
    b.li(Reg::R16, 3);
    b.and(Reg::R15, Reg::R15, Reg::R16);
    b.slli(Reg::R15, Reg::R15, 6);
    b.addi(Reg::R1, Reg::R1, 64);
    b.add(Reg::R1, Reg::R1, Reg::R15);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    b.finish()
}

/// soplex: sparse LP — sequential index/value streams with a gather into a
/// large dense vector per nonzero.
fn soplex(scale: Scale) -> Program {
    let nnz_bytes = sz(scale, 8 * 1024 * 1024);
    let vec_bytes = sz(scale, 4 * 1024 * 1024);
    let idx = 0x100_0000u64;
    let val = idx + nnz_bytes;
    let dense = val + nnz_bytes;
    let mut b = ProgramBuilder::new("soplex");
    random_words(&mut b, idx, nnz_bytes, 0x73706c78, move |v| {
        dense + (v % (vec_bytes / 8)) * 8
    });
    b.li(Reg::R1, idx as i64);
    b.li(Reg::R2, val as i64);
    b.li(Reg::R3, (idx + nnz_bytes) as i64);
    let top = b.label();
    b.bind(top);
    b.load(Reg::R10, Reg::R1, 0); // column address (gather target)
    b.load(Reg::R11, Reg::R2, 0); // matrix value
    b.load(Reg::R12, Reg::R10, 0); // x[col]
    b.mul(Reg::R13, Reg::R11, Reg::R12);
    compute_chain(&mut b, Reg::R13, 4);
    b.addi(Reg::R1, Reg::R1, 8);
    b.addi(Reg::R2, Reg::R2, 8);
    b.blt(Reg::R1, Reg::R3, top);
    b.halt();
    b.finish()
}

/// sphinx: acoustic-model scoring — a sequential senone stream indexing
/// into a Gaussian table, four clustered loads per table entry.
fn sphinx(scale: Scale) -> Program {
    let list_bytes = sz(scale, 4 * 1024 * 1024);
    let table_bytes = sz(scale, 8 * 1024 * 1024);
    let list = 0x100_0000u64;
    let table = list + list_bytes;
    let entries = table_bytes / 512;
    let mut b = ProgramBuilder::new("sphinx");
    random_words(&mut b, list, list_bytes, 0x737068, move |v| {
        table + (v % entries) * 512
    });
    b.li(Reg::R1, list as i64);
    b.li(Reg::R2, (list + list_bytes) as i64);
    let top = b.label();
    b.bind(top);
    b.load(Reg::R10, Reg::R1, 0); // gaussian base address
    b.load(Reg::R11, Reg::R10, 0);
    b.load(Reg::R12, Reg::R10, 64);
    b.load(Reg::R13, Reg::R10, 128);
    b.load(Reg::R14, Reg::R10, 192);
    b.add(Reg::R15, Reg::R11, Reg::R12);
    b.add(Reg::R15, Reg::R15, Reg::R13);
    b.add(Reg::R15, Reg::R15, Reg::R14);
    compute_chain(&mut b, Reg::R15, 8);
    b.addi(Reg::R1, Reg::R1, 8);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    b.finish()
}

// ---------------------------------------------------------------------------
// cache-resident / compute kernels (little benefit from any prefetcher)
// ---------------------------------------------------------------------------

/// bzip2: byte-transform style — a small buffer, word-granular accesses and
/// a genuinely data-dependent (hard) branch.
fn bzip2(_scale: Scale) -> Program {
    let bytes = 48 * 1024u64;
    let buf = 0x100_0000u64;
    let mut b = ProgramBuilder::new("bzip2");
    random_words(&mut b, buf, bytes, 0x627a, |v| v);
    b.li(Reg::R1, buf as i64);
    b.li(Reg::R2, (buf + bytes) as i64);
    b.li(Reg::R5, 1);
    let top = b.label();
    let odd = b.label();
    b.bind(top);
    b.load(Reg::R10, Reg::R1, 0);
    b.and(Reg::R11, Reg::R10, Reg::R5);
    b.bne(Reg::R11, Reg::R0, odd); // ~50% taken: hard branch
    b.xor(Reg::R28, Reg::R28, Reg::R10);
    b.bind(odd);
    b.add(Reg::R28, Reg::R28, Reg::R10);
    b.srli(Reg::R12, Reg::R10, 3);
    b.add(Reg::R29, Reg::R29, Reg::R12);
    b.addi(Reg::R1, Reg::R1, 8);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    b.finish()
}

/// h264ref: motion compensation — short sequential block copies inside a
/// frame that fits in the LLC.
fn h264ref(scale: Scale) -> Program {
    let bytes = sz(scale, 2 * 1024 * 1024).min(2 * 1024 * 1024);
    let src = 0x100_0000u64;
    let dst = src + bytes;
    let mut b = ProgramBuilder::new("h264ref");
    b.li(Reg::R1, src as i64);
    b.li(Reg::R2, dst as i64);
    b.li(Reg::R3, (src + bytes) as i64);
    let outer = b.label();
    b.bind(outer);
    // copy one 128 B block (two lines), then hop 1 KB
    for k in 0..16i64 {
        b.load(Reg::R10, Reg::R1, k * 8);
        b.store(Reg::R10, Reg::R2, k * 8);
    }
    b.addi(Reg::R1, Reg::R1, 1024);
    b.addi(Reg::R2, Reg::R2, 1024);
    b.blt(Reg::R1, Reg::R3, outer);
    b.halt();
    b.finish()
}

/// sjeng: game-tree search — register-computed pseudo-random probes into an
/// LLC-resident transposition table plus branchy evaluation.
fn sjeng(scale: Scale) -> Program {
    let bytes = sz(scale, 512 * 1024).min(512 * 1024);
    let table = 0x100_0000u64;
    let mut b = ProgramBuilder::new("sjeng");
    b.li(Reg::R1, 0x9e37_79b9_i64);
    b.li(Reg::R2, table as i64);
    b.li(Reg::R3, ((bytes / 64) - 1) as i64); // line-index mask (pow2/64)
    b.li(Reg::R4, 0);
    b.li(Reg::R5, 200_000);
    b.li(Reg::R7, 5);
    let top = b.label();
    let miss = b.label();
    b.bind(top);
    // hash = lcg(hash); idx = (hash & mask) * 64
    b.mul(Reg::R1, Reg::R1, Reg::R1);
    b.addi(Reg::R1, Reg::R1, 0x0123_4567);
    b.and(Reg::R10, Reg::R1, Reg::R3);
    b.slli(Reg::R10, Reg::R10, 6);
    b.add(Reg::R11, Reg::R2, Reg::R10);
    b.load(Reg::R12, Reg::R11, 0);
    b.and(Reg::R13, Reg::R12, Reg::R7);
    b.beq(Reg::R13, Reg::R7, miss); // mostly not taken
    b.xor(Reg::R28, Reg::R28, Reg::R12);
    b.bind(miss);
    b.store(Reg::R28, Reg::R11, 8);
    b.addi(Reg::R4, Reg::R4, 1);
    b.blt(Reg::R4, Reg::R5, top);
    b.halt();
    b.finish()
}

/// gamess: quantum chemistry inner loops — pure dependent ALU work over an
/// L1-resident table.
fn gamess(_scale: Scale) -> Program {
    let bytes = 16 * 1024u64;
    let table = 0x100_0000u64;
    let mut b = ProgramBuilder::new("gamess");
    b.li(Reg::R1, table as i64);
    b.li(Reg::R2, (table + bytes) as i64);
    let top = b.label();
    b.bind(top);
    b.load(Reg::R10, Reg::R1, 0);
    compute_chain(&mut b, Reg::R10, 30);
    b.mul(Reg::R28, Reg::R28, Reg::R29);
    b.addi(Reg::R1, Reg::R1, 8);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    b.finish()
}

/// calculix: finite-element solve — small dense blocks, L2-resident,
/// multiply-heavy.
fn calculix(scale: Scale) -> Program {
    let bytes = sz(scale, 128 * 1024).min(128 * 1024);
    let a = 0x100_0000u64;
    let mut b = ProgramBuilder::new("calculix");
    b.li(Reg::R1, a as i64);
    b.li(Reg::R2, (a + bytes) as i64);
    let top = b.label();
    b.bind(top);
    b.load(Reg::R10, Reg::R1, 0);
    b.load(Reg::R11, Reg::R1, 8);
    b.mul(Reg::R12, Reg::R10, Reg::R11);
    compute_chain(&mut b, Reg::R12, 18);
    b.store(Reg::R28, Reg::R1, 16);
    b.addi(Reg::R1, Reg::R1, 32);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    b.finish()
}

/// gromacs: molecular dynamics force loop — an L2-resident particle array
/// with paired loads and substantial compute.
fn gromacs(scale: Scale) -> Program {
    let bytes = sz(scale, 256 * 1024).min(256 * 1024);
    let p = 0x100_0000u64;
    let mut b = ProgramBuilder::new("gromacs");
    b.li(Reg::R1, p as i64);
    b.li(Reg::R2, (p + bytes) as i64);
    let top = b.label();
    b.bind(top);
    b.load(Reg::R10, Reg::R1, 0);
    b.load(Reg::R11, Reg::R1, 8);
    b.load(Reg::R12, Reg::R1, 16);
    b.mul(Reg::R13, Reg::R10, Reg::R11);
    compute_chain(&mut b, Reg::R13, 24);
    b.add(Reg::R28, Reg::R28, Reg::R12);
    b.addi(Reg::R1, Reg::R1, 24);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    b.finish()
}

// ---------------------------------------------------------------------------
// registry
// ---------------------------------------------------------------------------

/// All 18 kernels in the alphabetical order the paper's figures use.
pub fn kernels() -> &'static [Kernel] {
    &[
        Kernel {
            name: "astar",
            prefetch_sensitive: true,
            foa: 0.45,
            build: astar,
        },
        Kernel {
            name: "bwaves",
            prefetch_sensitive: true,
            foa: 0.70,
            build: bwaves,
        },
        Kernel {
            name: "bzip2",
            prefetch_sensitive: false,
            foa: 0.25,
            build: bzip2,
        },
        Kernel {
            name: "cactusADM",
            prefetch_sensitive: true,
            foa: 0.50,
            build: cactus_adm,
        },
        Kernel {
            name: "calculix",
            prefetch_sensitive: false,
            foa: 0.15,
            build: calculix,
        },
        Kernel {
            name: "gamess",
            prefetch_sensitive: false,
            foa: 0.05,
            build: gamess,
        },
        Kernel {
            name: "gromacs",
            prefetch_sensitive: false,
            foa: 0.20,
            build: gromacs,
        },
        Kernel {
            name: "h264ref",
            prefetch_sensitive: false,
            foa: 0.30,
            build: h264ref,
        },
        Kernel {
            name: "hmmer",
            prefetch_sensitive: true,
            foa: 0.40,
            build: hmmer,
        },
        Kernel {
            name: "lbm",
            prefetch_sensitive: true,
            foa: 0.95,
            build: lbm,
        },
        Kernel {
            name: "leslie3d",
            prefetch_sensitive: true,
            foa: 0.75,
            build: leslie3d,
        },
        Kernel {
            name: "libquantum",
            prefetch_sensitive: true,
            foa: 0.90,
            build: libquantum,
        },
        Kernel {
            name: "mcf",
            prefetch_sensitive: true,
            foa: 0.85,
            build: mcf,
        },
        Kernel {
            name: "milc",
            prefetch_sensitive: true,
            foa: 0.80,
            build: milc,
        },
        Kernel {
            name: "sjeng",
            prefetch_sensitive: false,
            foa: 0.10,
            build: sjeng,
        },
        Kernel {
            name: "soplex",
            prefetch_sensitive: true,
            foa: 0.65,
            build: soplex,
        },
        Kernel {
            name: "sphinx",
            prefetch_sensitive: true,
            foa: 0.55,
            build: sphinx,
        },
        Kernel {
            name: "zeusmp",
            prefetch_sensitive: true,
            foa: 0.60,
            build: zeusmp,
        },
    ]
}

/// Looks a kernel up by its SPEC-style name.
pub fn kernel_by_name(name: &str) -> Option<&'static Kernel> {
    kernels().iter().find(|k| k.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfetch_isa::ArchState;

    #[test]
    fn registry_is_alphabetical() {
        let names: Vec<&str> = kernels().iter().map(|k| k.name).collect();
        let mut sorted = names.clone();
        sorted.sort_by_key(|n| n.to_ascii_lowercase());
        assert_eq!(names, sorted);
    }

    #[test]
    fn lookup_by_name() {
        assert!(kernel_by_name("milc").is_some());
        assert!(kernel_by_name("nonesuch").is_none());
    }

    #[test]
    fn mcf_chases_valid_pointers() {
        let p = kernel_by_name("mcf").unwrap().build_small();
        let mut s = ArchState::new(&p);
        s.run(&p, 50_000);
        // the chased value register was actually loaded from the node pool
        assert!(s.retired() > 10_000);
    }

    #[test]
    fn small_scale_reduces_data_size() {
        let small = kernel_by_name("soplex").unwrap().build_small();
        let full = kernel_by_name("soplex").unwrap().build_full();
        let sb: usize = small.data().iter().map(|(_, w)| w.len()).sum();
        let fb: usize = full.data().iter().map(|(_, w)| w.len()).sum();
        assert!(sb < fb);
    }

    #[test]
    fn data_init_is_deterministic() {
        let a = kernel_by_name("astar").unwrap().build_small();
        let b = kernel_by_name("astar").unwrap().build_small();
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn milc_touches_eight_offsets_per_region() {
        let p = kernel_by_name("milc").unwrap().build_small();
        let mut s = ArchState::new(&p);
        let mut eas = Vec::new();
        for _ in 0..200 {
            if let Some(i) = s.step(&p) {
                if let Some(ea) = i.ea {
                    eas.push(ea);
                }
            }
        }
        // offsets inside the first region span almost the full 2 KB
        let first_region: Vec<u64> = eas.iter().filter(|&&a| a < 0x100_0800).copied().collect();
        assert!(first_region.len() >= 8);
        let span = first_region.iter().max().unwrap() - first_region.iter().min().unwrap();
        assert!(span >= 1500, "milc region span {span}");
    }
}
