//! MSE: microstructure electrostatics (Section 5.1).
//!
//! A boundary-integral solution of the Laplace equation over `N` bodies,
//! each discretized into `M` boundary elements. The `(NM)^2` system
//! matrix is too large to store and is *recomputed as needed*: the
//! simulated machines are charged `pair_cost` cycles per entry on every
//! use, while the host evaluates each entry from element positions it
//! computes once per run ([`MseSystem`]). The system is solved with
//! parallel asynchronous Jacobi iterations whose communication is
//! governed by a distance-based *schedule*: distant bodies interact
//! weakly, so their contributions are refreshed less often. This makes
//! MSE the study's computation-bound program (90% of time computing in
//! MSE-MP, Table 4).
//!
//! * MSE-MP keeps a per-processor copy of the solution vector; when the
//!   schedule calls for updates it sends asynchronous requests to body
//!   owners, which service them (from the CMMD dispatch loop) with bulk
//!   channel replies.
//! * MSE-SM keeps the solution vector in shared memory and simply reads
//!   current values; its extra costs are the start-up wait for node 0's
//!   serial initialization and one load-imbalanced barrier (Table 5).

pub mod mp;
pub mod sm;

use crate::common::Validation;

/// Workload and cost parameters for MSE.
#[derive(Clone, Debug, PartialEq)]
pub struct MseParams {
    /// Number of bodies (the paper runs 256). Must be divisible by
    /// `procs` and arranged on a `grid x grid` layout (`grid^2 == bodies`).
    pub bodies: usize,
    /// Boundary elements per body (the paper runs 20).
    pub elems: usize,
    /// Jacobi iterations (the paper runs 20).
    pub iters: usize,
    /// Number of processors (the paper runs 32).
    pub procs: usize,
    /// Grid side (bodies are centered on integer grid positions).
    pub grid: usize,
    /// Distance divisor of the exchange schedule: bodies at distance `d`
    /// refresh every `1 + floor(d / d_scale)` iterations.
    pub d_scale: f64,
    /// Simulated cycles per element pair in the interaction kernel,
    /// charged on every use (the target recomputes the matrix entry:
    /// distance, log, divide).
    pub pair_cost: u64,
    /// Serial initialization on node 0 before `create` (shared-memory
    /// version only; the paper's Start-up Wait row).
    pub serial_init_cycles: u64,
    /// Extra initialization node 0 performs after `create` (the source of
    /// the load-imbalanced barrier in Table 5).
    pub unbalanced_init_cycles: u64,
}

impl Default for MseParams {
    fn default() -> Self {
        MseParams {
            bodies: 256,
            elems: 20,
            iters: 20,
            procs: 32,
            grid: 16,
            d_scale: 8.0,
            pair_cost: 90,
            serial_init_cycles: 80_000_000,
            unbalanced_init_cycles: 76_000_000,
        }
    }
}

impl MseParams {
    /// A scaled-down workload for unit tests.
    pub fn small() -> Self {
        MseParams {
            bodies: 16,
            elems: 4,
            iters: 8,
            procs: 4,
            grid: 4,
            d_scale: 2.0,
            serial_init_cycles: 60_000,
            unbalanced_init_cycles: 50_000,
            ..Self::default()
        }
    }

    /// Unknowns in the system.
    pub fn unknowns(&self) -> usize {
        self.bodies * self.elems
    }

    /// Owner processor of body `k`. Bodies are dealt round-robin so every
    /// processor's mix of near and far bodies (and hence its schedule
    /// workload) is balanced.
    pub fn owner(&self, k: usize) -> usize {
        k % self.procs
    }

    /// Storage slot of body `k` in the owner-major solution layout (each
    /// owner's bodies are contiguous, which lets bulk replies land in
    /// place).
    pub fn slot(&self, k: usize) -> usize {
        (k % self.procs) * (self.bodies / self.procs) + k / self.procs
    }

    /// Bodies owned by processor `p`, in slot order.
    pub fn bodies_of(&self, p: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.bodies / self.procs).map(move |t| p + t * self.procs)
    }

    /// Center of body `k` on the grid.
    pub fn center(&self, k: usize) -> (f64, f64) {
        ((k % self.grid) as f64, (k / self.grid) as f64)
    }

    /// Position of element `e` of body `k` (a circle of radius 0.3).
    pub fn elem_pos(&self, k: usize, e: usize) -> (f64, f64) {
        let (cx, cy) = self.center(k);
        let theta = 2.0 * std::f64::consts::PI * e as f64 / self.elems as f64;
        (cx + 0.3 * theta.cos(), cy + 0.3 * theta.sin())
    }

    /// Distance between body centers.
    pub fn body_dist(&self, a: usize, b: usize) -> f64 {
        let (ax, ay) = self.center(a);
        let (bx, by) = self.center(b);
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }

    /// Refresh period of the (a, b) body pair under the schedule.
    pub fn period(&self, a: usize, b: usize) -> usize {
        1 + (self.body_dist(a, b) / self.d_scale) as usize
    }

    /// Whether the (a, b) interaction is refreshed at `iter`.
    pub fn due(&self, a: usize, b: usize, iter: usize) -> bool {
        iter.is_multiple_of(self.period(a, b))
    }

    /// The off-diagonal matrix entry coupling elements `(body a, e)` and
    /// `(body b, f)`: the 2D Laplace single-layer kernel. This reference
    /// form recomputes both element positions; the programs evaluate the
    /// same expression from positions computed once ([`MseSystem::kernel`]),
    /// and the simulated cost of recomputing the entry is charged per use.
    pub fn kernel(&self, a: usize, e: usize, b: usize, f: usize) -> f64 {
        laplace_kernel(self.elem_pos(a, e), self.elem_pos(b, f))
    }
}

/// The 2D Laplace single-layer kernel between two element positions.
/// Bitwise symmetric: `(p - q)^2` equals `(q - p)^2` exactly and the two
/// squares are added in the same order either way.
fn laplace_kernel((px, py): (f64, f64), (qx, qy): (f64, f64)) -> f64 {
    let d2 = (px - qx).powi(2) + (py - qy).powi(2);
    if d2 == 0.0 {
        0.0
    } else {
        -d2.sqrt().ln() / (2.0 * std::f64::consts::PI)
    }
}

/// Per-element data precomputed at initialization: the (diagonally
/// dominant) diagonal, the right-hand side chosen so the exact solution
/// is all ones, and every element's position. Unknowns are indexed
/// body-major: element `e` of body `k` is unknown `k * elems + e`.
#[derive(Clone, Debug)]
pub struct MseSystem {
    /// Diagonal entries, one per unknown.
    pub diag: Vec<f64>,
    /// Right-hand side, one per unknown.
    pub rhs: Vec<f64>,
    /// Element positions, one per unknown.
    pos: Vec<(f64, f64)>,
}

impl MseSystem {
    /// The off-diagonal matrix entry coupling unknowns `r` and `c`;
    /// bit-identical to [`MseParams::kernel`] on the same elements.
    #[inline]
    pub fn kernel(&self, r: usize, c: usize) -> f64 {
        laplace_kernel(self.pos[r], self.pos[c])
    }
}

/// Builds the diagonal and right-hand side (host side; both program
/// versions charge the equivalent computation to the simulated clock).
///
/// Walks the upper triangle once and adds each entry to both of its
/// rows. Row `c` still receives its columns in ascending order (`0..c`
/// from earlier rows, then `c + 1..` in its own), and the kernel is
/// bitwise symmetric, so every sum equals the full-square row sum bit
/// for bit with half the kernel evaluations.
pub fn build_system(p: &MseParams) -> MseSystem {
    let nm = p.unknowns();
    let pos: Vec<(f64, f64)> = (0..p.bodies)
        .flat_map(|k| (0..p.elems).map(move |e| p.elem_pos(k, e)))
        .collect();
    let mut abs_sum = vec![0.0f64; nm];
    let mut sum = vec![0.0f64; nm];
    for r in 0..nm {
        for c in r + 1..nm {
            let v = laplace_kernel(pos[r], pos[c]);
            abs_sum[r] += v.abs();
            sum[r] += v;
            abs_sum[c] += v.abs();
            sum[c] += v;
        }
    }
    // Diagonal dominance guarantees Jacobi convergence, even with the
    // schedule's bounded staleness; the right-hand side makes the exact
    // solution all ones.
    let diag: Vec<f64> = abs_sum.iter().map(|&a| 1.5 * a).collect();
    let rhs = sum.iter().zip(&diag).map(|(&s, &d)| s + d).collect();
    MseSystem { diag, rhs, pos }
}

/// Validates a computed solution against the all-ones exact answer.
/// Twenty Jacobi iterations with contraction factor ~2/3 leave an error
/// around `(2/3)^iters`; the tolerance accounts for schedule staleness.
pub fn validate_solution(p: &MseParams, z: &[f64]) -> Validation {
    let err = z.iter().map(|&v| (v - 1.0).abs()).fold(0.0f64, f64::max);
    let tol = (2.0f64 / 3.0).powi(p.iters as i32 / 2).max(1e-6);
    Validation::from_error("max |z - 1|", err, tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_periods_grow_with_distance() {
        let p = MseParams::default();
        assert_eq!(p.period(0, 0), 1);
        assert_eq!(p.period(0, 1), 1);
        let far = p.period(0, p.bodies - 1);
        assert!(far > 2, "far period {far}");
        assert_eq!(p.period(3, 200), p.period(200, 3), "symmetric");
    }

    #[test]
    fn kernel_is_symmetric_and_finite() {
        let p = MseParams::small();
        for (a, e, b, f) in [(0, 0, 1, 2), (3, 1, 14, 3), (5, 2, 5, 3)] {
            let v = p.kernel(a, e, b, f);
            assert!(v.is_finite());
            assert_eq!(v, p.kernel(b, f, a, e));
        }
    }

    /// A configuration whose sizes are not powers of two.
    fn odd() -> MseParams {
        MseParams {
            bodies: 64,
            elems: 7,
            grid: 8,
            procs: 8,
            ..MseParams::small()
        }
    }

    #[test]
    fn position_table_kernel_matches_the_reference_bitwise() {
        for p in [MseParams::small(), odd()] {
            let sys = build_system(&p);
            for (a, e) in (0..p.bodies).flat_map(|a| (0..p.elems).map(move |e| (a, e))) {
                for (b, f) in (0..p.bodies).flat_map(|b| (0..p.elems).map(move |f| (b, f))) {
                    let table = sys.kernel(a * p.elems + e, b * p.elems + f);
                    let reference = p.kernel(a, e, b, f);
                    assert_eq!(
                        table.to_bits(),
                        reference.to_bits(),
                        "({a},{e})-({b},{f}) of {}x{}",
                        p.bodies,
                        p.elems
                    );
                }
            }
        }
    }

    #[test]
    fn triangle_build_matches_the_full_square_bitwise() {
        for p in [MseParams::small(), odd()] {
            let sys = build_system(&p);
            // The full-square loop: every row sums all its columns in order.
            for a in 0..p.bodies {
                for e in 0..p.elems {
                    let row = a * p.elems + e;
                    let mut abs_sum = 0.0;
                    let mut sum = 0.0;
                    for b in 0..p.bodies {
                        for f in 0..p.elems {
                            if (a, e) == (b, f) {
                                continue;
                            }
                            let v = p.kernel(a, e, b, f);
                            abs_sum += v.abs();
                            sum += v;
                        }
                    }
                    let diag = 1.5 * abs_sum;
                    let rhs = sum + diag;
                    assert_eq!(sys.diag[row].to_bits(), diag.to_bits(), "diag[{row}]");
                    assert_eq!(sys.rhs[row].to_bits(), rhs.to_bits(), "rhs[{row}]");
                }
            }
        }
    }

    #[test]
    fn system_is_diagonally_dominant() {
        let p = MseParams::small();
        let sys = build_system(&p);
        // diag = 1.5 * sum |offdiag| by construction: spot check row 0.
        let mut abs_sum = 0.0;
        for b in 0..p.bodies {
            for f in 0..p.elems {
                if (b, f) != (0, 0) {
                    abs_sum += p.kernel(0, 0, b, f).abs();
                }
            }
        }
        assert!((sys.diag[0] - 1.5 * abs_sum).abs() < 1e-12);
    }

    #[test]
    fn sequential_jacobi_converges_to_ones() {
        let p = MseParams::small();
        let sys = build_system(&p);
        let nm = p.unknowns();
        let mut z = vec![0.0f64; nm];
        for _ in 0..p.iters {
            let old = z.clone();
            for a in 0..p.bodies {
                for e in 0..p.elems {
                    let row = a * p.elems + e;
                    let mut s = 0.0;
                    for b in 0..p.bodies {
                        for f in 0..p.elems {
                            if (a, e) != (b, f) {
                                s += p.kernel(a, e, b, f) * old[b * p.elems + f];
                            }
                        }
                    }
                    z[row] = (sys.rhs[row] - s) / sys.diag[row];
                }
            }
        }
        let v = validate_solution(&p, &z);
        assert!(v.passed, "{}", v.detail);
    }
}
