//! Seeded input generation: the database text each workload serves and
//! the request stream each connection sends. Everything here is a pure
//! function of the workload seed, and uses its own generator so that
//! changes to the program's RNG never move the benchmark's inputs.

use std::collections::HashSet;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Zipf-distributed ranks `0..n` with exponent `s` (rank 0 hottest).
#[derive(Clone, Debug)]
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

fn push_tuple(out: &mut String, rel: &str, args: &[u64], p: f64) {
    let args: Vec<String> = args.iter().map(u64::to_string).collect();
    // `{}` prints the shortest text that parses back to the same f64, so
    // the served database and the in-process replica hold equal bits.
    out.push_str(&format!("{rel}({}) @ {p}\n", args.join(", ")));
}

// ---------------------------------------------------------------- star-read

const STAR_ROOTS: u64 = 20_000;
const STAR_FANOUT: u64 = 4;
/// Roots the point queries draw from: more distinct queries than the
/// 512-entry plan caches hold, fewer than the 4,096-entry result cache.
const STAR_HOT_ROOTS: usize = 2_000;
const STAR_ZIPF_S: f64 = 1.1;

/// The 100k-tuple star `R(x), S(x,y)` with the probability ranges of the
/// repository's `star_workload`.
pub fn star_db(seed: u64) -> String {
    let mut rng = Rng::stream(seed, 1);
    let (n, f) = (STAR_ROOTS, STAR_FANOUT);
    let mut out = String::with_capacity(3_000_000);
    for i in 0..n {
        push_tuple(&mut out, "R", &[i], rng.range_f64(0.02, 0.2));
        for j in 0..f {
            push_tuple(&mut out, "S", &[i, n + i * f + j], rng.range_f64(0.02, 0.3));
        }
    }
    out
}

/// One request a connection sends: endpoint path plus JSON body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Req {
    pub path: &'static str,
    pub body: String,
}

pub fn eval_req(query: &str) -> Req {
    Req {
        path: "/eval",
        body: format!("{{\"query\":\"{}\"}}", json_escape(query)),
    }
}

fn rank_req(query: &str, head: &str, top: Option<u64>) -> Req {
    let top = top.map(|t| format!(",\"top\":{t}")).unwrap_or_default();
    Req {
        path: "/rank",
        body: format!(
            "{{\"query\":\"{}\",\"head\":\"{head}\"{top}}}",
            json_escape(query)
        ),
    }
}

pub fn apply_req(script: &str) -> Req {
    Req {
        path: "/apply",
        body: format!("{{\"deltas\":\"{}\"}}", json_escape(script)),
    }
}

pub fn watch_req(query: &str, updates: u64, timeout_ms: u64) -> Req {
    Req {
        path: "/watch",
        body: format!(
            "{{\"query\":\"{}\",\"updates\":{updates},\"timeout_ms\":{timeout_ms}}}",
            json_escape(query)
        ),
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One star-read connection: 70% point `/eval`, 10% point `/rank`, 20%
/// full-star `/eval`; point keys Zipf-skewed over the hot roots.
pub struct StarStream {
    rng: Rng,
    zipf: Zipf,
    hot: Vec<u64>,
}

impl StarStream {
    pub fn new(seed: u64, conn: u64) -> StarStream {
        StarStream {
            rng: Rng::stream(seed, 100 + conn),
            zipf: Zipf::new(STAR_HOT_ROOTS, STAR_ZIPF_S),
            hot: star_hot_roots(seed),
        }
    }

    pub fn next_req(&mut self) -> Req {
        let mix = self.rng.unit();
        let k = self.hot[self.zipf.sample(&mut self.rng)];
        if mix < 0.7 {
            eval_req(&format!("R({k}), S({k},y)"))
        } else if mix < 0.8 {
            // The only variable of the point query is the first one, so
            // its positional head name is `x0`.
            rank_req(&format!("R({k}), S({k},y)"), "x0", None)
        } else {
            eval_req("R(x), S(x,y)")
        }
    }
}

/// The hot roots, Zipf rank order: a seeded sample of distinct roots.
fn star_hot_roots(seed: u64) -> Vec<u64> {
    let mut rng = Rng::stream(seed, 2);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(STAR_HOT_ROOTS);
    while out.len() < STAR_HOT_ROOTS {
        let k = rng.below(STAR_ROOTS);
        if seen.insert(k) {
            out.push(k);
        }
    }
    out
}

// -------------------------------------------------------------- bushy-churn

const BUSHY_ROOTS: u64 = 12_000;
const BUSHY_FANOUT: u64 = 4;
const BUSHY_OPS_PER_APPLY: usize = 100;
pub const BUSHY_FOUR_ATOM: &str = "R(x), S(x,y), U(x,y,z), V(x,w)";

/// The 156k-tuple bushy `R, S, U, V` with the shape and probability
/// ranges of the repository's `bushy_workload`.
pub fn bushy_db(seed: u64) -> String {
    let mut rng = Rng::stream(seed, 1);
    let (n, f) = (BUSHY_ROOTS, BUSHY_FANOUT);
    let mut out = String::with_capacity(5_000_000);
    for i in 0..n {
        push_tuple(&mut out, "R", &[i], rng.range_f64(0.05, 0.3));
        for j in 0..f {
            let y = n + i * f + j;
            push_tuple(&mut out, "S", &[i, y], rng.range_f64(0.05, 0.3));
            push_tuple(
                &mut out,
                "U",
                &[i, y, 100_000 + y],
                rng.range_f64(0.05, 0.3),
            );
            push_tuple(&mut out, "V", &[i, 200_000 + y], rng.range_f64(0.05, 0.3));
        }
    }
    out
}

/// The reads of one bushy-churn pass, in order.
pub fn bushy_pass() -> Vec<Req> {
    vec![
        eval_req("R(x), S(x,y)"),
        eval_req("R(x), V(x,w)"),
        eval_req(BUSHY_FOUR_ATOM),
        rank_req("R(x0), S(x0,x1)", "x0", Some(10)),
    ]
}

/// Delta scripts of connection A's cycles: cycle `i` targets `R` when
/// `i % 4 == 3` and `V` otherwise; each batch is 80% probability updates,
/// 10% inserts, 10% deletes of live tuples. Tracks which tuples are live
/// so every op names real content.
pub struct BushyDeltas {
    rng: Rng,
    live_r: Vec<u64>,
    live_v: Vec<(u64, u64)>,
    fresh: u64,
    cycle: u64,
}

impl BushyDeltas {
    pub fn new(seed: u64) -> BushyDeltas {
        let (n, f) = (BUSHY_ROOTS, BUSHY_FANOUT);
        BushyDeltas {
            rng: Rng::stream(seed, 3),
            live_r: (0..n).collect(),
            live_v: (0..n)
                .flat_map(|i| (0..f).map(move |j| (i, 200_000 + n + i * f + j)))
                .collect(),
            fresh: 1_000_000,
            cycle: 0,
        }
    }

    /// The next cycle's script: one batch (no blank lines), one version.
    pub fn next_script(&mut self) -> String {
        let target_r = self.cycle % 4 == 3;
        self.cycle += 1;
        let mut out = String::new();
        for _ in 0..BUSHY_OPS_PER_APPLY {
            let kind = self.rng.unit();
            let p = self.rng.range_f64(0.05, 0.3);
            if target_r {
                if kind < 0.8 {
                    let x = self.live_r[self.rng.below(self.live_r.len() as u64) as usize];
                    out.push_str(&format!("~ R({x}) @ {p}\n"));
                } else if kind < 0.9 {
                    let x = self.fresh;
                    self.fresh += 1;
                    self.live_r.push(x);
                    out.push_str(&format!("+ R({x}) @ {p}\n"));
                } else {
                    let i = self.rng.below(self.live_r.len() as u64) as usize;
                    let x = self.live_r.swap_remove(i);
                    out.push_str(&format!("- R({x})\n"));
                }
            } else if kind < 0.8 {
                let (x, w) = self.live_v[self.rng.below(self.live_v.len() as u64) as usize];
                out.push_str(&format!("~ V({x}, {w}) @ {p}\n"));
            } else if kind < 0.9 {
                let x = self.rng.below(BUSHY_ROOTS);
                let w = self.fresh;
                self.fresh += 1;
                self.live_v.push((x, w));
                out.push_str(&format!("+ V({x}, {w}) @ {p}\n"));
            } else {
                let i = self.rng.below(self.live_v.len() as u64) as usize;
                let (x, w) = self.live_v.swap_remove(i);
                out.push_str(&format!("- V({x}, {w})\n"));
            }
        }
        out
    }
}

// ----------------------------------------------------------------- hard-mix

const HARD_ROOTS: u64 = 150;
const HARD_POOL: u64 = 150;
const HARD_EDGES: u64 = 4;
/// Root `i` is the value `HARD_SPACING * i`, so many window texts select
/// the same roots and the stream never has to repeat a query text.
const HARD_SPACING: u64 = 10;
const HARD_Y_BASE: u64 = 10_000;
pub const HARD_MC_SAMPLES: u64 = 10_000;

/// The #P-hard instance for `R(x), S(x,y), T(y)`, built the way the
/// repository's `h0_workload` builds its instance: `R` roots, a `T` that
/// covers a shared pool of `y` values, and `HARD_EDGES` distinct random
/// `S` edges per root into the pool (shared variables, so lineages are
/// not read-once).
pub fn hard_db(seed: u64) -> String {
    let mut rng = Rng::stream(seed, 1);
    let mut out = String::new();
    for i in 0..HARD_ROOTS {
        push_tuple(&mut out, "R", &[HARD_SPACING * i], rng.range_f64(0.2, 0.8));
    }
    for j in 0..HARD_POOL {
        push_tuple(&mut out, "T", &[HARD_Y_BASE + j], rng.range_f64(0.2, 0.8));
    }
    for i in 0..HARD_ROOTS {
        let mut ys = Vec::new();
        while ys.len() < HARD_EDGES as usize {
            let y = rng.below(HARD_POOL);
            if !ys.contains(&y) {
                ys.push(y);
            }
        }
        for y in ys {
            push_tuple(
                &mut out,
                "S",
                &[HARD_SPACING * i, HARD_Y_BASE + y],
                rng.range_f64(0.2, 0.8),
            );
        }
    }
    out
}

/// Window queries `R(x), S(x,y), T(y), x > a, x < b` selecting 10–20
/// consecutive roots; no text repeats (shared by both connections).
pub struct HardWindows {
    rng: Rng,
    seen: HashSet<(u64, u64)>,
}

impl HardWindows {
    pub fn new(seed: u64) -> HardWindows {
        HardWindows {
            rng: Rng::stream(seed, 4),
            seen: HashSet::new(),
        }
    }

    /// The next `(a, b)`: the open interval holds exactly 10–20 roots.
    pub fn next_window(&mut self) -> (u64, u64) {
        loop {
            // Roots first..=last, first ≥ 1 so `a` needs no negative
            // constant; a in [s·(first−1), s·first), b in (s·last, s·(last+1)].
            let width = 10 + self.rng.below(11);
            let first = 1 + self.rng.below(HARD_ROOTS - width);
            let last = first + width - 1;
            let a = HARD_SPACING * (first - 1) + self.rng.below(HARD_SPACING);
            let b = HARD_SPACING * last + 1 + self.rng.below(HARD_SPACING);
            if self.seen.insert((a, b)) {
                return (a, b);
            }
        }
    }

    pub fn next_req(&mut self) -> Req {
        let (a, b) = self.next_window();
        eval_req(&format!("R(x), S(x,y), T(y), x > {a}, x < {b}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Roots strictly inside `(a, b)`.
    fn hard_window_roots(a: u64, b: u64) -> u64 {
        (0..HARD_ROOTS)
            .filter(|i| {
                let x = HARD_SPACING * i;
                x > a && x < b
            })
            .count() as u64
    }

    #[test]
    fn zipf_is_deterministic_per_seed_and_skewed() {
        let z = Zipf::new(STAR_HOT_ROOTS, STAR_ZIPF_S);
        let draw = |seed| {
            let mut r = Rng::stream(seed, 0);
            (0..2000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let d = draw(7);
        assert!(d.iter().all(|&k| k < STAR_HOT_ROOTS));
        let top = d.iter().filter(|&&k| k == 0).count();
        let tail = d.iter().filter(|&&k| k == 1000).count();
        assert!(top > 100 && tail < 10, "rank 0: {top}, rank 1000: {tail}");
    }

    #[test]
    fn star_stream_is_deterministic_per_seed() {
        let take = |seed, conn| {
            let mut s = StarStream::new(seed, conn);
            (0..500).map(|_| s.next_req()).collect::<Vec<_>>()
        };
        assert_eq!(take(3, 0), take(3, 0));
        assert_ne!(take(3, 0), take(3, 1));
        assert_ne!(take(3, 0), take(4, 0));
        assert_eq!(star_db(5), star_db(5));
    }

    #[test]
    fn windows_are_deterministic_distinct_and_sized() {
        let take = |seed| {
            let mut w = HardWindows::new(seed);
            (0..3000).map(|_| w.next_window()).collect::<Vec<_>>()
        };
        let a = take(11);
        assert_eq!(a, take(11));
        assert_ne!(a, take(12));
        let distinct: HashSet<_> = a.iter().collect();
        assert_eq!(distinct.len(), a.len(), "a window text repeated");
        for &(lo, hi) in &a {
            let n = hard_window_roots(lo, hi);
            assert!((10..=20).contains(&n), "({lo}, {hi}) holds {n} roots");
        }
    }

    #[test]
    fn bushy_deltas_are_deterministic_and_sized() {
        let take = |seed| {
            let mut d = BushyDeltas::new(seed);
            (0..8).map(|_| d.next_script()).collect::<Vec<_>>()
        };
        let s = take(1);
        assert_eq!(s, take(1));
        for (i, script) in s.iter().enumerate() {
            assert_eq!(script.lines().count(), BUSHY_OPS_PER_APPLY);
            let rel = if i % 4 == 3 { "R(" } else { "V(" };
            assert!(script.lines().all(|l| l[2..].starts_with(rel)), "{i}");
        }
    }
}
