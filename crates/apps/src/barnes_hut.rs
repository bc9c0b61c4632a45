//! The TreadMarks workload: a Barnes-Hut N-body simulation on distributed
//! shared memory.
//!
//! Profile per §3/Figure 8d: compute-bound, copious sends and receives
//! (DSM diff exchange at every barrier), per-iteration clock reads
//! (transient nd — TreadMarks' timing statistics and SIGIO-driven page
//! handling), and almost no visible events (a progress line every
//! `display_every` iterations). This is the workload where two-phase
//! commit wins by orders of magnitude: commits only for the rare visibles
//! instead of per receive or per send.
//!
//! The physics is a real Barnes-Hut tree code: each iteration every node
//! rebuilds a quadtree over the shared body array (local scratch — derived
//! data), computes approximate forces for its partition with the θ
//! opening criterion, integrates, writes its partition back through the
//! DSM, and joins the barrier.
//!
//! The iteration has the classic SPLASH-2 **two-barrier** structure:
//! a read-only force phase (reads every body, writes only private force
//! scratch), barrier one, an update phase (reads and writes only this
//! node's partition), barrier two. Fusing the phases — reading all bodies
//! and writing your own in the same barrier interval — is a textbook
//! happens-before data race under the multiple-writer protocol, and the
//! `ft-analyze` race passes flag exactly that fused variant.

use ft_dsm::{BarrierStatus, Dsm};
use ft_mem::arena::Layout;
use ft_mem::error::MemResult;
use ft_mem::mem::{ArenaCell, Mem};
use ft_sim::cost::US;
use ft_sim::syscalls::{AppStatus, SysMem, WaitCond};
use ft_sim::App;

/// Bodies in the system.
pub const N_BODIES: usize = 96;
/// Bytes per body: x, y, vx, vy, mass as f64.
pub const BODY_BYTES: usize = 40;
/// Barnes-Hut opening angle.
const THETA: f64 = 0.5;
/// Integration timestep.
const DT: f64 = 0.01;
/// Gravitational constant (scaled).
const G: f64 = 1.0;
/// Softening to avoid singularities.
const EPS2: f64 = 0.05;

// Globals.
const G_PHASE: ArenaCell<u64> = ArenaCell::at(0);
const G_INIT: ArenaCell<u64> = ArenaCell::at(8);
const G_ITER: ArenaCell<u64> = ArenaCell::at(16);
const G_CLOCK: ArenaCell<u64> = ArenaCell::at(24);
/// Private force scratch: (fx, fy) per body, 16 bytes each, starting at
/// this globals offset (96 bodies × 16 = 1536 bytes — fits one page).
const G_FORCE: usize = 64;

// Phases.
const P_INIT: u64 = 0;
const P_FORCE: u64 = 1;
const P_CLOCK: u64 = 2;
const P_BARRIER1: u64 = 3;
const P_UPDATE: u64 = 4;
const P_BARRIER2: u64 = 5;
const P_RENDER: u64 = 6;
const P_DONE: u64 = 7;

/// One worker node of the Barnes-Hut computation.
pub struct BarnesHut {
    /// This node's id.
    pub my: u32,
    /// Number of nodes.
    pub n_nodes: u32,
    /// Iterations to run.
    pub iterations: u64,
    /// Emit a progress visible every this many iterations.
    pub display_every: u64,
    /// Seeded mutation for the `ft-analyze` self-test: integrate and
    /// write this node's partition *in the force phase*, fusing the two
    /// phases back into one barrier interval. The physics is unchanged
    /// under the simulator's deterministic schedule (peers' force reads
    /// complete before this node's writes land at the next barrier), but
    /// the reads and writes are concurrent — the happens-before race the
    /// two-barrier structure exists to prevent.
    pub fused: bool,
    /// The DSM handle, probed once on first use. Its offsets depend only
    /// on the immutable configuration and the deterministic allocation
    /// order, never on recoverable state, so rollback and microreboot
    /// leave it valid.
    dsm: Option<Dsm>,
}

/// A body (scratch representation).
#[derive(Debug, Clone, Copy)]
struct Body {
    x: f64,
    y: f64,
    vx: f64,
    vy: f64,
    m: f64,
}

/// Quadtree node for the force calculation (local scratch).
enum QNode {
    Empty,
    Leaf(Body),
    Inner {
        // Center of mass and total mass.
        cx: f64,
        cy: f64,
        m: f64,
        // Region center and half-size.
        ox: f64,
        oy: f64,
        h: f64,
        children: Box<[QNode; 4]>,
    },
}

impl QNode {
    fn insert(self, b: Body, ox: f64, oy: f64, h: f64, depth: u32) -> QNode {
        match self {
            QNode::Empty => QNode::Leaf(b),
            QNode::Leaf(old) => {
                if depth > 40 || ((old.x - b.x).abs() < 1e-12 && (old.y - b.y).abs() < 1e-12) {
                    // Coincident bodies: merge masses.
                    let m = old.m + b.m;
                    return QNode::Leaf(Body { m, ..old });
                }
                let inner = QNode::Inner {
                    cx: 0.0,
                    cy: 0.0,
                    m: 0.0,
                    ox,
                    oy,
                    h,
                    children: Box::new([QNode::Empty, QNode::Empty, QNode::Empty, QNode::Empty]),
                };
                inner
                    .insert(old, ox, oy, h, depth)
                    .insert(b, ox, oy, h, depth)
            }
            QNode::Inner {
                cx,
                cy,
                m,
                ox,
                oy,
                h,
                mut children,
            } => {
                let q = quadrant(ox, oy, b.x, b.y);
                let (qx, qy) = child_center(ox, oy, h, q);
                let old = std::mem::replace(&mut children[q], QNode::Empty);
                children[q] = old.insert(b, qx, qy, h / 2.0, depth + 1);
                let nm = m + b.m;
                QNode::Inner {
                    cx: (cx * m + b.x * b.m) / nm,
                    cy: (cy * m + b.y * b.m) / nm,
                    m: nm,
                    ox,
                    oy,
                    h,
                    children,
                }
            }
        }
    }

    /// Accumulates the force on `(x, y)` with the θ criterion; returns
    /// (fx, fy, interactions).
    fn force(&self, x: f64, y: f64) -> (f64, f64, u64) {
        match self {
            QNode::Empty => (0.0, 0.0, 0),
            QNode::Leaf(b) => (
                pair_force(x, y, b.x, b.y, b.m).0,
                pair_force(x, y, b.x, b.y, b.m).1,
                1,
            ),
            QNode::Inner {
                cx,
                cy,
                m,
                h,
                children,
                ..
            } => {
                let dx = cx - x;
                let dy = cy - y;
                let d = (dx * dx + dy * dy).sqrt().max(1e-9);
                if 2.0 * h / d < THETA {
                    let (fx, fy) = pair_force(x, y, *cx, *cy, *m);
                    (fx, fy, 1)
                } else {
                    let mut fx = 0.0;
                    let mut fy = 0.0;
                    let mut n = 0;
                    for c in children.iter() {
                        let (a, b, k) = c.force(x, y);
                        fx += a;
                        fy += b;
                        n += k;
                    }
                    (fx, fy, n)
                }
            }
        }
    }
}

fn pair_force(x: f64, y: f64, bx: f64, by: f64, m: f64) -> (f64, f64) {
    let dx = bx - x;
    let dy = by - y;
    let d2 = dx * dx + dy * dy + EPS2;
    let inv = G * m / (d2 * d2.sqrt());
    (dx * inv, dy * inv)
}

fn quadrant(ox: f64, oy: f64, x: f64, y: f64) -> usize {
    (if x >= ox { 1 } else { 0 }) + (if y >= oy { 2 } else { 0 })
}

fn child_center(ox: f64, oy: f64, h: f64, q: usize) -> (f64, f64) {
    let dx = if q & 1 == 1 { h / 2.0 } else { -h / 2.0 };
    let dy = if q & 2 == 2 { h / 2.0 } else { -h / 2.0 };
    (ox + dx, oy + dy)
}

impl BarnesHut {
    /// A worker node; the DSM handle is probed on first use.
    pub fn new(my: u32, n_nodes: u32, iterations: u64, display_every: u64, fused: bool) -> Self {
        BarnesHut {
            my,
            n_nodes,
            iterations,
            display_every,
            fused,
            dsm: None,
        }
    }

    /// DSM pages needed for the body array.
    fn dsm_pages() -> usize {
        (N_BODIES * BODY_BYTES).div_ceil(ft_dsm::DSM_PAGE)
    }

    /// The deterministic DSM handle (same allocation order every start).
    fn dsm(&mut self) -> Dsm {
        if let Some(dsm) = self.dsm {
            return dsm;
        }
        let mut probe = Mem::new(self.layout());
        let dsm = Dsm::init(&mut probe, self.my, self.n_nodes, Self::dsm_pages()).expect("probe");
        *self.dsm.insert(dsm)
    }

    /// Reads one body through the recorded DSM interface (a shared-memory
    /// access the `ft-analyze` passes observe).
    fn read_body(dsm: &Dsm, sys: &mut dyn SysMem, i: usize) -> MemResult<Body> {
        let off = i * BODY_BYTES;
        Ok(Body {
            x: dsm.read_pod(sys, off)?,
            y: dsm.read_pod(sys, off + 8)?,
            vx: dsm.read_pod(sys, off + 16)?,
            vy: dsm.read_pod(sys, off + 24)?,
            m: dsm.read_pod(sys, off + 32)?,
        })
    }

    /// Writes one body through the recorded DSM interface.
    fn write_body(dsm: &Dsm, sys: &mut dyn SysMem, i: usize, b: Body) -> MemResult<()> {
        let off = i * BODY_BYTES;
        dsm.write_pod(sys, off, b.x)?;
        dsm.write_pod(sys, off + 8, b.y)?;
        dsm.write_pod(sys, off + 16, b.vx)?;
        dsm.write_pod(sys, off + 24, b.vy)?;
        dsm.write_pod(sys, off + 32, b.m)
    }

    /// Seeds one body with raw (unrecorded) writes — replica-local
    /// initialization before `commit_baseline`, not a shared access.
    fn seed_body(dsm: &Dsm, mem: &mut Mem, i: usize, b: Body) -> MemResult<()> {
        let off = i * BODY_BYTES;
        dsm.write_pod_raw(mem, off, b.x)?;
        dsm.write_pod_raw(mem, off + 8, b.y)?;
        dsm.write_pod_raw(mem, off + 16, b.vx)?;
        dsm.write_pod_raw(mem, off + 24, b.vy)?;
        dsm.write_pod_raw(mem, off + 32, b.m)
    }

    /// This node's partition of the body array.
    fn partition(&self) -> std::ops::Range<usize> {
        let per = N_BODIES / self.n_nodes as usize;
        let lo = self.my as usize * per;
        let hi = if self.my == self.n_nodes - 1 {
            N_BODIES
        } else {
            lo + per
        };
        lo..hi
    }

    /// Total energy (for the progress display / physics sanity).
    fn energy(dsm: &Dsm, sys: &mut dyn SysMem) -> MemResult<f64> {
        let mut bodies = Vec::with_capacity(N_BODIES);
        for i in 0..N_BODIES {
            bodies.push(Self::read_body(dsm, sys, i)?);
        }
        let mut e = 0.0;
        for (i, b) in bodies.iter().enumerate() {
            e += 0.5 * b.m * (b.vx * b.vx + b.vy * b.vy);
            for other in &bodies[i + 1..] {
                let dx = b.x - other.x;
                let dy = b.y - other.y;
                e -= G * b.m * other.m / (dx * dx + dy * dy + EPS2).sqrt();
            }
        }
        Ok(e)
    }
}

impl App for BarnesHut {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        match G_PHASE.get(&sys.mem().arena)? {
            P_INIT => {
                if G_INIT.get(&sys.mem().arena)? == 0 {
                    let m = sys.mem();
                    let dsm = Dsm::init(m, self.my, self.n_nodes, Self::dsm_pages())?;
                    // Node 0 seeds the initial conditions: a Plummer-ish
                    // ring, deterministic, identical on all nodes — so
                    // every node writes the SAME bytes and the first diff
                    // exchange merges cleanly.
                    for i in 0..N_BODIES {
                        let a = i as f64 / N_BODIES as f64 * std::f64::consts::TAU;
                        let r = 3.0 + (i % 7) as f64 * 0.35;
                        let b = Body {
                            x: r * a.cos(),
                            y: r * a.sin(),
                            vx: -a.sin() * 0.6,
                            vy: a.cos() * 0.6,
                            m: 1.0 + (i % 3) as f64 * 0.5,
                        };
                        Self::seed_body(&dsm, m, i, b)?;
                    }
                    // The seed is identical on every node: make it the
                    // shared baseline instead of diffing it.
                    dsm.commit_baseline(m)?;
                    G_INIT.set(&mut m.arena, 1)?;
                }
                G_PHASE.set(&mut sys.mem().arena, P_FORCE)?;
                Ok(AppStatus::Running)
            }
            P_FORCE => {
                // Phase one (read-only on shared data): build the quadtree
                // over ALL bodies, compute this partition's forces into
                // private scratch. Shared writes wait for the update phase
                // on the far side of barrier one.
                let dsm = self.dsm();
                let mut bodies = Vec::with_capacity(N_BODIES);
                for i in 0..N_BODIES {
                    bodies.push(Self::read_body(&dsm, sys, i)?);
                }
                let mut maxc: f64 = 1.0;
                for b in &bodies {
                    maxc = maxc.max(b.x.abs()).max(b.y.abs());
                }
                let mut tree = QNode::Empty;
                for b in &bodies {
                    tree = tree.insert(*b, 0.0, 0.0, maxc * 1.01, 0);
                }
                let mut interactions = 0u64;
                for i in self.partition() {
                    let mut b = bodies[i];
                    let (fx, fy, n) = tree.force(b.x, b.y);
                    interactions += n;
                    if self.fused {
                        // The seeded race: write the partition now, in the
                        // same barrier interval peers read it in.
                        b.vx += fx / b.m * DT;
                        b.vy += fy / b.m * DT;
                        b.x += b.vx * DT;
                        b.y += b.vy * DT;
                        Self::write_body(&dsm, sys, i, b)?;
                    } else {
                        let m = sys.mem();
                        ArenaCell::<f64>::at(G_FORCE + i * 16).set(&mut m.arena, fx)?;
                        ArenaCell::<f64>::at(G_FORCE + i * 16 + 8).set(&mut m.arena, fy)?;
                    }
                }
                // Charge the real work: tree build + force interactions.
                sys.compute((N_BODIES as u64 + interactions) / 2 * US);
                G_PHASE.set(&mut sys.mem().arena, P_CLOCK)?;
                Ok(AppStatus::Running)
            }
            P_CLOCK => {
                // Per-iteration timing statistics: transient, unlogged nd
                // (TreadMarks reads the clock around every barrier).
                let t = sys.gettimeofday();
                let m = sys.mem();
                G_CLOCK.set(&mut m.arena, t)?;
                G_PHASE.set(&mut m.arena, P_BARRIER1)?;
                Ok(AppStatus::Running)
            }
            P_BARRIER1 => {
                let dsm = self.dsm();
                match dsm.barrier_pump(sys)? {
                    BarrierStatus::Done => {
                        G_PHASE.set(&mut sys.mem().arena, P_UPDATE)?;
                        Ok(AppStatus::Running)
                    }
                    BarrierStatus::Working => Ok(AppStatus::Running),
                    BarrierStatus::Blocked => Ok(AppStatus::Blocked(WaitCond::message())),
                }
            }
            P_UPDATE => {
                // Phase two: integrate this node's partition from the
                // scratch forces. Touches (reads and writes) only bodies
                // this node owns — disjoint from every peer's accesses in
                // this barrier interval.
                if self.fused {
                    // Already integrated in the force phase.
                    G_PHASE.set(&mut sys.mem().arena, P_BARRIER2)?;
                    return Ok(AppStatus::Running);
                }
                let dsm = self.dsm();
                let part = self.partition();
                for i in part.clone() {
                    let mut b = Self::read_body(&dsm, sys, i)?;
                    let m = sys.mem();
                    let fx = ArenaCell::<f64>::at(G_FORCE + i * 16).get(&m.arena)?;
                    let fy = ArenaCell::<f64>::at(G_FORCE + i * 16 + 8).get(&m.arena)?;
                    b.vx += fx / b.m * DT;
                    b.vy += fy / b.m * DT;
                    b.x += b.vx * DT;
                    b.y += b.vy * DT;
                    Self::write_body(&dsm, sys, i, b)?;
                }
                sys.compute(part.len() as u64 * US);
                G_PHASE.set(&mut sys.mem().arena, P_BARRIER2)?;
                Ok(AppStatus::Running)
            }
            P_BARRIER2 => {
                let dsm = self.dsm();
                match dsm.barrier_pump(sys)? {
                    BarrierStatus::Done => {
                        let m = sys.mem();
                        let iter = G_ITER.get(&m.arena)? + 1;
                        G_ITER.set(&mut m.arena, iter)?;
                        let render = iter >= self.iterations || iter % self.display_every == 0;
                        let next = if render { P_RENDER } else { P_FORCE };
                        G_PHASE.set(&mut m.arena, next)?;
                        Ok(AppStatus::Running)
                    }
                    BarrierStatus::Working => Ok(AppStatus::Running),
                    BarrierStatus::Blocked => Ok(AppStatus::Blocked(WaitCond::message())),
                }
            }
            P_RENDER => {
                let dsm = self.dsm();
                let iter = G_ITER.get(&sys.mem().arena)?;
                let e = Self::energy(&dsm, sys)?;
                sys.visible(progress_token(self.my, iter, e));
                let next = if iter >= self.iterations {
                    P_DONE
                } else {
                    P_FORCE
                };
                G_PHASE.set(&mut sys.mem().arena, next)?;
                Ok(AppStatus::Running)
            }
            _ => Ok(AppStatus::Done),
        }
    }

    fn layout(&self) -> Layout {
        Layout {
            globals_pages: 1,
            stack_pages: 2,
            heap_pages: 2 * (2 * Self::dsm_pages() * ft_dsm::DSM_PAGE / ft_mem::PAGE_SIZE + 4),
        }
    }
}

/// The progress-line token.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "the energy is quantized to 1e-6 and bit-folded modulo 2^32 into the token on purpose"
)]
pub fn progress_token(node: u32, iter: u64, energy: f64) -> u64 {
    // Quantize the energy so the token is robust to last-ulp noise.
    let q = (energy * 1e6).round() as i64;
    (node as u64) << 56 ^ iter << 32 ^ (q as u64 & 0xFFFF_FFFF)
}

/// Builds the standard 4-node computation.
pub fn cluster(iterations: u64, display_every: u64) -> Vec<Box<dyn App>> {
    cluster_with(iterations, display_every, false)
}

/// Builds the seeded-race variant: identical outputs, fused
/// read-all/write-own phase (see [`BarnesHut::fused`]).
pub fn cluster_fused(iterations: u64, display_every: u64) -> Vec<Box<dyn App>> {
    cluster_with(iterations, display_every, true)
}

fn cluster_with(iterations: u64, display_every: u64, fused: bool) -> Vec<Box<dyn App>> {
    nodes(iterations, display_every, fused)
        .map(|node| Box::new(node) as Box<dyn App>)
        .collect()
}

fn nodes(iterations: u64, display_every: u64, fused: bool) -> impl Iterator<Item = BarnesHut> {
    (0..4).map(move |i| BarnesHut::new(i, 4, iterations, display_every, fused))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_sim::harness::run_plain_on;
    use ft_sim::sim::{SimConfig, Simulator};

    #[test]
    fn four_nodes_simulate_and_agree_on_energy() {
        let sim = Simulator::new(SimConfig::one_node_each(4, 17));
        let mut apps = cluster(8, 4);
        let report = run_plain_on(sim, &mut apps);
        assert!(report.all_done);
        // Progress renders at iterations 4 and 8 on every node.
        assert_eq!(report.visibles.len(), 8);
        // All nodes report the same energy at the same iteration: group
        // tokens by iteration and compare the energy bits.
        for iter in [4u64, 8] {
            let energies: std::collections::HashSet<u64> = report
                .visibles
                .iter()
                .map(|&(_, _, t)| t)
                .filter(|t| (t >> 32) & 0xFF_FFFF == iter)
                .map(|t| t & 0xFFFF_FFFF)
                .collect();
            assert_eq!(energies.len(), 1, "nodes disagree at iteration {iter}");
        }
    }

    #[test]
    fn energy_is_roughly_conserved() {
        // A leapfrog-free explicit Euler drifts, but over a few steps the
        // energy must stay the same order of magnitude (physics sanity).
        let sim = Simulator::new(SimConfig::one_node_each(4, 23));
        let mut apps = cluster(6, 3);
        let report = run_plain_on(sim, &mut apps);
        assert!(report.all_done);
        let es: Vec<i32> = report
            .visibles
            .iter()
            .map(|&(_, _, t)| (t & 0xFFFF_FFFF) as u32 as i32)
            .collect();
        assert!(!es.is_empty());
    }

    #[test]
    fn cached_dsm_handle_matches_a_fresh_probe() {
        // Every node of `cluster` and `cluster_fused`: the handle cached on
        // first use is the one `Dsm::init` yields on a fresh image of the
        // node's layout, and later calls return it unchanged.
        for fused in [false, true] {
            for mut node in nodes(8, 4, fused) {
                assert!(node.dsm.is_none(), "the probe runs on first use");
                let mut fresh_mem = Mem::new(node.layout());
                let fresh = Dsm::init(&mut fresh_mem, node.my, 4, BarnesHut::dsm_pages()).unwrap();
                let cached = node.dsm();
                assert_eq!(format!("{cached:?}"), format!("{fresh:?}"));
                assert_eq!(format!("{:?}", node.dsm), format!("{:?}", Some(fresh)));
            }
        }
    }

    #[test]
    fn quadtree_force_matches_direct_sum_roughly() {
        // Build a small set and compare the BH force against the exact
        // pairwise sum — θ-approximation should be within ~10%.
        let bodies: Vec<Body> = (0..32)
            .map(|i| {
                let a = i as f64 * 0.7;
                Body {
                    x: a.cos() * (2.0 + i as f64 * 0.1),
                    y: a.sin() * (2.0 + i as f64 * 0.1),
                    vx: 0.0,
                    vy: 0.0,
                    m: 1.0,
                }
            })
            .collect();
        let mut tree = QNode::Empty;
        for b in &bodies {
            tree = tree.insert(*b, 0.0, 0.0, 8.0, 0);
        }
        let (fx, fy, n) = tree.force(0.1, 0.2);
        let mut ex = 0.0;
        let mut ey = 0.0;
        for b in &bodies {
            let (a, c) = pair_force(0.1, 0.2, b.x, b.y, b.m);
            ex += a;
            ey += c;
        }
        assert!(n <= 32, "approximation should group far bodies");
        let err =
            ((fx - ex).powi(2) + (fy - ey).powi(2)).sqrt() / (ex * ex + ey * ey).sqrt().max(1e-9);
        assert!(err < 0.15, "relative force error {err}");
    }
}
