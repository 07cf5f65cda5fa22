//! Hydraulic network solver.
//!
//! Reproduces the algebraic flow/pressure solve that Modelica performs for
//! the paper's plant model: given pump speeds, valve openings, and passive
//! resistances connected between junctions, find branch flows and junction
//! pressures satisfying (a) the pressure balance along every branch and
//! (b) mass conservation at every junction.
//!
//! Formulation: unknowns are all branch flows `Q_b` plus the pressures of
//! all non-reference nodes. Residuals:
//!
//! * per branch `b` from node `i` to `j`:
//!   `r_b = P_i − P_j + rise_b(Q_b) − drop_b(Q_b)`   (Pa)
//! * per non-reference node `n`:
//!   `r_n = Σ Q_in − Σ Q_out + injection_n`           (m³/s)
//!
//! solved with damped Newton–Raphson. With the unknowns ordered
//! `[flows, pressures]` the Jacobian is
//!
//! ```text
//!     [ D  B ]   D = diag(∂gain_k/∂q_k)       (branch rows)
//!     [ C  0 ]   B, C = ±1 node incidence     (mass-balance rows)
//! ```
//!
//! — 139 non-zeros of 32 × 32 on Frontier's primary loop. Each Newton
//! step eliminates the branch rows straight into the small node block, in
//! exactly the order dense LU with partial pivoting would, then factors
//! that block densely and back-substitutes the flows: O(branches) work
//! instead of a dense factorisation. This holds when every
//! `|D_k| ≥ 1`, which is when partial pivoting keeps each `D_k` as its
//! column's pivot (the balance rows hold ±1 there); the two routes then
//! perform the same floating-point operations and give the same bits.
//! When some `|D_k| < 1` or is not finite (a stopped pump alone on a
//! branch, a near-zero drop at tiny flow), the step falls back to the dense
//! [`Matrix`] LU over the whole Jacobian. [`Solution::dense_iterations`]
//! counts the fallbacks; the Frontier plant takes none.
//!
//! Flow-independent element constants (valve resistance at the current
//! opening, pump density and curve at the current speed) are evaluated once
//! per solve, and the Newton loop works in one scratch buffer. Warm-starting
//! from the previous time step keeps a replayed Frontier day under one
//! iteration per solve on average.

use crate::linalg::{lu_solve_in_place, Matrix};
use exadigit_thermo::pump::{Pump, PumpCurve};
use exadigit_thermo::valve::ControlValve;
use exadigit_thermo::HydraulicResistance;

/// Index of a junction in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct NodeId(pub usize);

/// Index of a branch in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct BranchId(pub usize);

/// A hydraulic element along a branch.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum BranchElement {
    /// Passive quadratic resistance.
    Resistance(HydraulicResistance),
    /// Modulating control valve (resistance depends on opening).
    Valve(ControlValve),
    /// Centrifugal pump with a relative speed command in `[0, 1]`.
    Pump {
        /// The pump's head curve and design point.
        pump: Pump,
        /// Relative speed command in `[0, 1]` (affinity laws scale the
        /// head curve).
        speed: f64,
    },
    /// Check valve: negligible drop forward, near-blocking reverse.
    CheckValve {
        /// Forward-flow resistance, Pa/(m³/s)².
        k_forward: f64,
        /// Reverse-flow resistance (large), Pa/(m³/s)².
        k_reverse: f64,
    },
}

impl BranchElement {
    /// The element with its flow-independent constants (valve resistance at
    /// the current opening, pump curve at the current speed and fluid
    /// temperature `t` °C) evaluated for one solve.
    fn prepare(&self, t: f64) -> SolveElement {
        match self {
            BranchElement::Resistance(r) => SolveElement::Resistance(*r),
            // At a fixed opening a valve is the quadratic resistance
            // `resistance()`: the same drop and, since negation is exact,
            // the same slope.
            BranchElement::Valve(v) => {
                SolveElement::Resistance(HydraulicResistance { k: v.resistance() })
            }
            BranchElement::Pump { pump, speed } => SolveElement::Pump(pump.curve(*speed, t)),
            BranchElement::CheckValve {
                k_forward,
                k_reverse,
            } => SolveElement::CheckValve {
                k_forward: *k_forward,
                k_reverse: *k_reverse,
            },
        }
    }
}

/// A [`BranchElement`] prepared for one solve (see `BranchElement::prepare`).
#[derive(Debug, Clone, Copy)]
enum SolveElement {
    Resistance(HydraulicResistance),
    Pump(PumpCurve),
    CheckValve { k_forward: f64, k_reverse: f64 },
}

impl SolveElement {
    /// Net pressure *gain* contributed by the element at flow `q`. Pumps
    /// are positive; passive elements negative.
    #[inline]
    fn pressure_gain(&self, q: f64) -> f64 {
        match self {
            SolveElement::Resistance(r) => -r.pressure_drop(q),
            SolveElement::Pump(curve) => curve.pressure_rise(q.max(0.0)),
            SolveElement::CheckValve {
                k_forward,
                k_reverse,
            } => {
                let k = if q >= 0.0 { *k_forward } else { *k_reverse };
                -k * q * q.abs()
            }
        }
    }

    /// Derivative of [`Self::pressure_gain`] with respect to flow.
    #[inline]
    fn dgain_dflow(&self, q: f64) -> f64 {
        const Q_EPS: f64 = 1e-6;
        match self {
            SolveElement::Resistance(r) => -r.dpressure_dflow(q),
            SolveElement::Pump(curve) => curve.dpressure_dflow(q.max(0.0)),
            SolveElement::CheckValve {
                k_forward,
                k_reverse,
            } => {
                let k = if q >= 0.0 { *k_forward } else { *k_reverse };
                -2.0 * k * q.abs().max(Q_EPS)
            }
        }
    }
}

/// A branch: an ordered chain of elements between two junctions. Positive
/// flow runs `from → to`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Branch {
    /// Display name, e.g. `HTWP2` or `CDU13.primary`.
    pub name: String,
    /// Upstream junction for positive flow.
    pub from: NodeId,
    /// Downstream junction for positive flow.
    pub to: NodeId,
    /// Elements in series along the branch.
    pub elements: Vec<BranchElement>,
    /// Initial flow guess for cold starts, m³/s.
    pub initial_flow: f64,
}

/// Solver failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// Newton iteration did not meet tolerance within the iteration cap.
    NotConverged {
        /// Iterations performed.
        iterations: usize,
        /// Final residual norm.
        residual: f64,
    },
    /// The Jacobian became numerically singular (usually a disconnected
    /// node or an all-zero branch).
    SingularJacobian,
    /// Network is structurally invalid (no nodes/branches).
    EmptyNetwork,
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::NotConverged { iterations, residual } => {
                write!(f, "hydraulic solve did not converge after {iterations} iterations (residual {residual:.3e})")
            }
            SolverError::SingularJacobian => write!(f, "singular hydraulic Jacobian"),
            SolverError::EmptyNetwork => write!(f, "hydraulic network has no nodes or branches"),
        }
    }
}

impl std::error::Error for SolverError {}

/// A converged flow/pressure state.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    flows: Vec<f64>,
    pressures: Vec<f64>,
    /// Newton iterations used (diagnostic).
    pub iterations: usize,
    /// Of those, the iterations whose step needed the dense LU fallback
    /// (diagnostic; see [`HydraulicNetwork::solve`]).
    pub dense_iterations: usize,
}

impl Solution {
    /// Flow through a branch, m³/s (positive `from → to`).
    pub fn flow(&self, b: BranchId) -> f64 {
        self.flows[b.0]
    }

    /// Pressure at a node, Pa (reference node is at the configured value).
    pub fn pressure(&self, n: NodeId) -> f64 {
        self.pressures[n.0]
    }

    /// All branch flows.
    pub fn flows(&self) -> &[f64] {
        &self.flows
    }
}

/// The hydraulic network: junctions, branches, one reference node.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct HydraulicNetwork {
    node_names: Vec<String>,
    branches: Vec<Branch>,
    /// External volumetric injection per node (m³/s, positive into node).
    injections: Vec<f64>,
    /// Node whose pressure is pinned.
    reference: NodeId,
    /// Pressure at the reference node, Pa.
    reference_pressure: f64,
    /// Last solution, used as a warm start.
    warm_start: Option<(Vec<f64>, Vec<f64>)>,
}

impl Default for HydraulicNetwork {
    fn default() -> Self {
        Self::new()
    }
}

impl HydraulicNetwork {
    /// Empty network. Node 0 (the first added) is the reference by default.
    pub fn new() -> Self {
        HydraulicNetwork {
            node_names: Vec::new(),
            branches: Vec::new(),
            injections: Vec::new(),
            reference: NodeId(0),
            reference_pressure: 0.0,
            warm_start: None,
        }
    }

    /// Add a junction.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        self.node_names.push(name.into());
        self.injections.push(0.0);
        NodeId(self.node_names.len() - 1)
    }

    /// Add a branch of serial elements between two junctions.
    pub fn add_branch(
        &mut self,
        name: impl Into<String>,
        from: NodeId,
        to: NodeId,
        elements: Vec<BranchElement>,
    ) -> BranchId {
        assert!(from.0 < self.node_names.len() && to.0 < self.node_names.len());
        assert!(from != to, "self-loop branches are not allowed");
        self.branches.push(Branch {
            name: name.into(),
            from,
            to,
            elements,
            initial_flow: 0.05,
        });
        self.warm_start = None;
        BranchId(self.branches.len() - 1)
    }

    /// Pin the reference node and its pressure (Pa).
    pub fn set_reference(&mut self, node: NodeId, pressure: f64) {
        self.reference = node;
        self.reference_pressure = pressure;
    }

    /// Set an external injection at a node (m³/s, positive into the node).
    pub fn set_injection(&mut self, node: NodeId, q: f64) {
        self.injections[node.0] = q;
    }

    /// Number of branches.
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Update the speed of every pump element on a branch.
    pub fn set_pump_speed(&mut self, b: BranchId, new_speed: f64) {
        for el in &mut self.branches[b.0].elements {
            if let BranchElement::Pump { speed, .. } = el {
                *speed = new_speed.clamp(0.0, 1.2);
            }
        }
    }

    /// Update the opening of every valve element on a branch.
    pub fn set_valve_opening(&mut self, b: BranchId, opening: f64) {
        for el in &mut self.branches[b.0].elements {
            if let BranchElement::Valve(v) = el {
                v.set_opening(opening);
            }
        }
    }

    /// Set the cold-start flow guess of a branch.
    pub fn set_initial_flow(&mut self, b: BranchId, q: f64) {
        self.branches[b.0].initial_flow = q;
    }

    /// Update the coefficient of every plain resistance on a branch — used
    /// for aggregate branches whose effective `k` changes with staging
    /// (e.g. `k_cell / n²` for `n` parallel tower cells).
    pub fn set_resistance(&mut self, b: BranchId, k: f64) {
        for el in &mut self.branches[b.0].elements {
            if let BranchElement::Resistance(r) = el {
                r.k = k;
            }
        }
    }

    /// Invalidate the warm start (use after topology-scale changes).
    pub fn clear_warm_start(&mut self) {
        self.warm_start = None;
    }

    /// Index of node `n` among the non-reference nodes, in node order
    /// (`None` for the reference): its pressure unknown and mass-balance
    /// row both sit at `branch_count() + index`.
    fn row(&self, n: usize) -> Option<usize> {
        let reference = self.reference.0;
        (n != reference).then(|| if n < reference { n } else { n - 1 })
    }

    /// Solve the network at fluid temperature `t` (°C).
    ///
    /// Residual scaling: pressure equations are measured in Pa (tolerance
    /// 0.5 Pa), mass balances in m³/s (tolerance 1e-8). Damped Newton with
    /// step halving; warm-started from the previous solution. Each Newton
    /// step takes the structured elimination of `Newton::step` when it
    /// reproduces the dense LU bit for bit, and the dense LU otherwise.
    pub fn solve(&mut self, t: f64) -> Result<Solution, SolverError> {
        self.solve_with(t, false)
    }

    /// [`Self::solve`], optionally forcing every Newton step through the
    /// dense LU (the reference the structured step must match).
    fn solve_with(&mut self, t: f64, dense_only: bool) -> Result<Solution, SolverError> {
        let nb = self.branches.len();
        let nn = self.node_names.len();
        if nb == 0 || nn == 0 {
            return Err(SolverError::EmptyNetwork);
        }
        const MAX_ITERS: usize = 60;

        let newton = Newton::new(self, t);

        // Initial guess.
        let (mut q, mut p) = match &self.warm_start {
            Some((wq, wp)) if wq.len() == nb && wp.len() == nn => (wq.clone(), wp.clone()),
            _ => (
                self.branches.iter().map(|b| b.initial_flow).collect::<Vec<_>>(),
                vec![self.reference_pressure; nn],
            ),
        };
        p[self.reference.0] = self.reference_pressure;

        // Scratch for the whole solve, so the Newton loop allocates nothing.
        let dim = newton.dim;
        let m = dim - nb;
        let mut scratch = vec![0.0; 3 * dim + 2 * nb + nn + m * m];
        let (mut r, rest) = scratch.split_at_mut(dim);
        let (mut r_try, rest) = rest.split_at_mut(dim);
        let (dx, rest) = rest.split_at_mut(dim);
        let (slopes, rest) = rest.split_at_mut(nb);
        let (q_try, rest) = rest.split_at_mut(nb);
        let (p_try, schur) = rest.split_at_mut(nn);

        newton.residual(&q, &p, r);
        let mut norm = newton.residual_norm(r);
        let mut iterations = 0;
        let mut dense_iterations = 0;

        while norm > 1.0 && iterations < MAX_ITERS {
            iterations += 1;
            newton.slopes(&q, slopes);
            for (x, v) in dx.iter_mut().zip(r.iter()) {
                *x = -v;
            }
            let structured = !dense_only && newton.step(slopes, schur, dx)?;
            if !structured {
                dense_iterations += 1;
                for (x, v) in dx.iter_mut().zip(r.iter()) {
                    *x = -v;
                }
                newton.dense_step(slopes, dx)?;
            }

            // Damped update: halve the step until the residual improves.
            let mut alpha = 1.0;
            let mut improved = false;
            for _ in 0..8 {
                q_try.copy_from_slice(&q);
                p_try.copy_from_slice(&p);
                newton.apply(alpha, dx, q_try, p_try);
                newton.residual(q_try, p_try, r_try);
                let norm_try = newton.residual_norm(r_try);
                if norm_try < norm {
                    q.copy_from_slice(q_try);
                    p.copy_from_slice(p_try);
                    std::mem::swap(&mut r, &mut r_try);
                    norm = norm_try;
                    improved = true;
                    break;
                }
                alpha *= 0.5;
            }
            if !improved {
                // Take the smallest step anyway to escape flat regions.
                newton.apply(alpha, dx, &mut q, &mut p);
                newton.residual(&q, &p, r);
                norm = newton.residual_norm(r);
            }
        }

        if norm > 1.0 {
            return Err(SolverError::NotConverged { iterations, residual: norm });
        }
        match &mut self.warm_start {
            Some((wq, wp)) if wq.len() == nb && wp.len() == nn => {
                wq.copy_from_slice(&q);
                wp.copy_from_slice(&p);
            }
            slot => *slot = Some((q.clone(), p.clone())),
        }
        Ok(Solution {
            flows: q,
            pressures: p,
            iterations,
            dense_iterations,
        })
    }
}

/// A branch prepared for one solve.
struct SolveBranch {
    /// End nodes, for the pressure lookups.
    from: usize,
    to: usize,
    /// Index of each end among the non-reference nodes (`None` for the
    /// reference): pressure unknown and mass-balance row `nb + index`.
    from_row: Option<usize>,
    to_row: Option<usize>,
    /// The branch's run in `Newton::elements`.
    elements: std::ops::Range<usize>,
}

/// One solve's view of the network: every element prepared at the solve's
/// temperature, and the unknown layout `[flows(nb), pressures(non-reference
/// nodes, in node order)]` whose Newton Jacobian is
///
/// ```text
///     [ D  B ]   D = diag(∂gain_k/∂q_k)       (branch rows)
///     [ C  0 ]   B, C = ±1 node incidence     (mass-balance rows)
/// ```
struct Newton<'a> {
    net: &'a HydraulicNetwork,
    /// Prepared elements of all branches, in branch order.
    elements: Vec<SolveElement>,
    branches: Vec<SolveBranch>,
    /// Number of unknowns.
    dim: usize,
}

impl<'a> Newton<'a> {
    fn new(net: &'a HydraulicNetwork, t: f64) -> Self {
        let mut elements = Vec::with_capacity(net.branches.iter().map(|b| b.elements.len()).sum());
        let branches = net
            .branches
            .iter()
            .map(|b| {
                let start = elements.len();
                elements.extend(b.elements.iter().map(|e| e.prepare(t)));
                SolveBranch {
                    from: b.from.0,
                    to: b.to.0,
                    from_row: net.row(b.from.0),
                    to_row: net.row(b.to.0),
                    elements: start..elements.len(),
                }
            })
            .collect();
        Newton {
            net,
            elements,
            branches,
            dim: net.branches.len() + net.node_names.len() - 1,
        }
    }

    /// Residuals at `(q, p)` into `r`.
    fn residual(&self, q: &[f64], p: &[f64], r: &mut [f64]) {
        let nb = self.branches.len();
        let (r_branch, r_node) = r.split_at_mut(nb);
        for ((rb, b), &qb) in r_branch.iter_mut().zip(&self.branches).zip(q) {
            let gain: f64 = self.elements[b.elements.clone()]
                .iter()
                .map(|e| e.pressure_gain(qb))
                .sum();
            *rb = p[b.from] - p[b.to] + gain;
        }
        // Mass balance rows, one per non-reference node: each starts from
        // the node's injection and adds the branch flows in branch order.
        for (n, &inj) in self.net.injections.iter().enumerate() {
            if let Some(row) = self.net.row(n) {
                r_node[row] = inj;
            }
        }
        for (b, &qb) in self.branches.iter().zip(q) {
            if let Some(row) = b.to_row {
                r_node[row] += qb;
            }
            if let Some(row) = b.from_row {
                r_node[row] -= qb;
            }
        }
    }

    /// Max-norm of the residual, each equation scaled by its tolerance.
    fn residual_norm(&self, r: &[f64]) -> f64 {
        const P_TOL: f64 = 0.5; // Pa
        const Q_TOL: f64 = 1e-8; // m³/s
        let nb = self.branches.len();
        let mut norm: f64 = 0.0;
        for (i, &v) in r.iter().enumerate() {
            let tol = if i < nb { P_TOL } else { Q_TOL };
            norm = norm.max(v.abs() / tol);
        }
        norm
    }

    /// The Jacobian's diagonal `D_k = ∂gain_k/∂q_k` at flows `q`.
    fn slopes(&self, q: &[f64], d: &mut [f64]) {
        for ((dk, b), &qb) in d.iter_mut().zip(&self.branches).zip(q) {
            *dk = self.elements[b.elements.clone()]
                .iter()
                .map(|e| e.dgain_dflow(qb))
                .sum();
        }
    }

    /// `q += α·dq`, `p += α·dp` over the non-reference nodes.
    fn apply(&self, alpha: f64, dx: &[f64], q: &mut [f64], p: &mut [f64]) {
        let nb = q.len();
        for (qv, d) in q.iter_mut().zip(dx) {
            *qv += alpha * d;
        }
        for (n, pv) in p.iter_mut().enumerate() {
            if let Some(row) = self.net.row(n) {
                *pv += alpha * dx[nb + row];
            }
        }
    }

    /// Solve `J·dx = −r` (`dx` holds `−r` on entry) by structured
    /// elimination, reproducing the dense LU's floating-point operations;
    /// `schur` is scratch for the node block.
    ///
    /// Partial pivoting keeps each branch row as the pivot of its own flow
    /// column exactly when `|D_k| ≥ 1` (the mass-balance rows hold ±1
    /// there). Then the dense LU never changes the branch rows, subtracts
    /// each branch row from the (at most two) balance rows of its end
    /// nodes, and is left with the small node block (the Schur complement
    /// `−C·D⁻¹·B`), which it factors like any dense matrix. This does the
    /// same non-trivial operations, on each entry in the same order, in
    /// O(branches); factors the node block with `lu_solve_in_place`; and
    /// back-substitutes the flows. The operations skipped are those on
    /// exact zeros. The one place where they can show, the sign of a flow
    /// sum of exactly zero, is replayed in full.
    ///
    /// Returns `Ok(false)`, with `dx` clobbered, when some `D_k` is below 1
    /// in magnitude or not finite, or a result is not finite: the caller
    /// must then take [`Self::dense_step`].
    fn step(&self, slopes: &[f64], schur: &mut [f64], dx: &mut [f64]) -> Result<bool, SolverError> {
        if !slopes.iter().all(|d| d.abs() >= 1.0 && d.is_finite()) {
            return Ok(false);
        }
        let nb = slopes.len();
        let m = self.dim - nb;
        schur.fill(0.0);
        let (dq, dp) = dx.split_at_mut(nb);
        // Forward elimination of the flow columns, in column order. The
        // balance row of a branch's `to` node holds +1 in its column, that
        // of its `from` node −1, and (−1)/D = −(1/D) exactly. The branch
        // row holds +1 in the `from` pressure column and −1 in the `to`
        // one, so the dense update `s −= factor · (±1)` is `s ∓= factor`.
        for ((b, &d), &rhs) in self.branches.iter().zip(slopes).zip(dq.iter()) {
            let inv = 1.0 / d;
            for (row, factor) in [(b.to_row, inv), (b.from_row, -inv)] {
                let Some(row) = row else { continue };
                if let Some(col) = b.from_row {
                    schur[row * m + col] -= factor;
                }
                if let Some(col) = b.to_row {
                    schur[row * m + col] += factor;
                }
                dp[row] -= factor * rhs;
            }
        }
        if !lu_solve_in_place(schur, m, dp) {
            return Err(SolverError::SingularJacobian);
        }
        // Back substitution of the flows, last branch first. Branch row k
        // holds +1 in the `from` pressure column and −1 in the `to` one,
        // subtracted in column order.
        for k in (0..nb).rev() {
            let b = &self.branches[k];
            let ends = match (b.from_row, b.to_row) {
                (Some(f), Some(t)) if t < f => [(b.to_row, -1.0), (b.from_row, 1.0)],
                _ => [(b.from_row, 1.0), (b.to_row, -1.0)],
            };
            let mut sum = dq[k];
            for (col, v) in ends {
                if let Some(col) = col {
                    sum -= v * dp[col];
                }
            }
            if sum == 0.0 {
                // Replay the dense row, zero entries included: subtracting
                // a zero product can flip the sign of a zero sum.
                sum = dq[k];
                for &x in &dq[k + 1..] {
                    sum -= 0.0 * x;
                }
                for (col, &x) in dp.iter().enumerate() {
                    let v = ends.iter().find(|e| e.0 == Some(col)).map_or(0.0, |e| e.1);
                    sum -= v * x;
                }
            }
            dq[k] = sum / slopes[k];
        }
        Ok(dx.iter().all(|v| v.is_finite()))
    }

    /// Solve `J·dx = −r` (`dx` holds `−r` on entry) with the dense LU of
    /// [`Matrix::solve`]: the general route, for any Jacobian.
    fn dense_step(&self, slopes: &[f64], dx: &mut [f64]) -> Result<(), SolverError> {
        let nb = slopes.len();
        let mut jac = Matrix::zeros(self.dim, self.dim);
        for (bi, b) in self.branches.iter().enumerate() {
            jac[(bi, bi)] = slopes[bi];
            if let Some(c) = b.from_row {
                jac[(bi, nb + c)] = 1.0;
                jac[(nb + c, bi)] = -1.0;
            }
            if let Some(c) = b.to_row {
                jac[(bi, nb + c)] = -1.0;
                jac[(nb + c, bi)] = 1.0;
            }
        }
        let x = jac.solve(dx).ok_or(SolverError::SingularJacobian)?;
        dx.copy_from_slice(&x);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exadigit_thermo::pump::Pump;

    /// Single pump driving a single resistance in a two-node loop.
    fn simple_loop() -> (HydraulicNetwork, BranchId, BranchId) {
        let mut net = HydraulicNetwork::new();
        let a = net.add_node("supply");
        let b = net.add_node("return");
        let pump = Pump::from_design_point("P", 0.3, 25.0, 0.8);
        let bp = net.add_branch(
            "pump",
            a,
            b,
            vec![BranchElement::Pump { pump, speed: 1.0 }],
        );
        let br = net.add_branch(
            "load",
            b,
            a,
            vec![BranchElement::Resistance(HydraulicResistance::from_design(0.3, 25.0 * 997.0 * 9.80665))],
        );
        net.set_reference(a, 0.0);
        (net, bp, br)
    }

    #[test]
    fn simple_loop_operating_point() {
        let (mut net, bp, br) = simple_loop();
        let sol = net.solve(25.0).expect("must converge");
        // Pump sized for 0.3 m³/s at 25 m; load sized to drop 25 m at 0.3:
        // the operating point is exactly the design point.
        assert!((sol.flow(bp) - 0.3).abs() < 1e-3, "q={}", sol.flow(bp));
        // Loop continuity: both branches carry identical flow.
        assert!((sol.flow(bp) - sol.flow(br)).abs() < 1e-9);
    }

    #[test]
    fn mass_conserved_at_every_node() {
        let (mut net, _, _) = simple_loop();
        let sol = net.solve(25.0).unwrap();
        // Branch 0 enters node 1, branch 1 leaves node 1.
        let net_flow = sol.flows()[0] - sol.flows()[1];
        assert!(net_flow.abs() < 1e-8);
    }

    #[test]
    fn parallel_resistances_split_by_conductance() {
        // One pump feeding two parallel resistances, one 4x the other:
        // quadratic law -> flow ratio = sqrt(4) = 2.
        let mut net = HydraulicNetwork::new();
        let a = net.add_node("supply");
        let b = net.add_node("return");
        let pump = Pump::from_design_point("P", 0.4, 30.0, 0.8);
        net.add_branch("pump", a, b, vec![BranchElement::Pump { pump, speed: 1.0 }]);
        let k = 1.0e6;
        let b1 = net.add_branch(
            "r1",
            b,
            a,
            vec![BranchElement::Resistance(HydraulicResistance { k })],
        );
        let b2 = net.add_branch(
            "r2",
            b,
            a,
            vec![BranchElement::Resistance(HydraulicResistance { k: 4.0 * k })],
        );
        let sol = net.solve(25.0).unwrap();
        let ratio = sol.flow(b1) / sol.flow(b2);
        assert!((ratio - 2.0).abs() < 1e-6, "ratio={ratio}");
    }

    #[test]
    fn pump_speed_reduces_flow() {
        let (mut net, bp, _) = simple_loop();
        let q_full = net.solve(25.0).unwrap().flow(bp);
        net.set_pump_speed(bp, 0.6);
        net.clear_warm_start();
        let q_slow = net.solve(25.0).unwrap().flow(bp);
        assert!(q_slow < q_full);
        // Affinity: flow scales ~linearly with speed for a quadratic system
        // curve.
        assert!((q_slow / q_full - 0.6).abs() < 0.05, "ratio={}", q_slow / q_full);
    }

    #[test]
    fn valve_throttles_flow() {
        let mut net = HydraulicNetwork::new();
        let a = net.add_node("supply");
        let b = net.add_node("return");
        let pump = Pump::from_design_point("P", 0.3, 25.0, 0.8);
        net.add_branch("pump", a, b, vec![BranchElement::Pump { pump, speed: 1.0 }]);
        let valve = ControlValve::from_design("V", 0.3, 60_000.0);
        let bl = net.add_branch(
            "load",
            b,
            a,
            vec![
                BranchElement::Valve(valve),
                BranchElement::Resistance(HydraulicResistance::from_design(0.3, 120_000.0)),
            ],
        );
        let q_open = net.solve(25.0).unwrap().flow(bl);
        net.set_valve_opening(bl, 0.3);
        let q_throttled = net.solve(25.0).unwrap().flow(bl);
        assert!(q_throttled < 0.6 * q_open, "open={q_open} throttled={q_throttled}");
    }

    #[test]
    fn check_valve_blocks_reverse_flow() {
        // Two pumps in parallel, one switched off with a check valve: the
        // off branch must carry (almost) no reverse flow.
        let mut net = HydraulicNetwork::new();
        let a = net.add_node("supply");
        let b = net.add_node("return");
        let p1 = Pump::from_design_point("P1", 0.3, 25.0, 0.8);
        let p2 = Pump::from_design_point("P2", 0.3, 25.0, 0.8);
        net.add_branch("pump1", a, b, vec![BranchElement::Pump { pump: p1, speed: 1.0 }]);
        let off = net.add_branch(
            "pump2",
            a,
            b,
            vec![
                BranchElement::Pump { pump: p2, speed: 0.0 },
                BranchElement::CheckValve { k_forward: 1e3, k_reverse: 1e12 },
            ],
        );
        net.add_branch(
            "load",
            b,
            a,
            vec![BranchElement::Resistance(HydraulicResistance::from_design(0.3, 200_000.0))],
        );
        let sol = net.solve(25.0).unwrap();
        assert!(sol.flow(off).abs() < 1e-3, "reverse flow {}", sol.flow(off));
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let (mut net, _, _) = simple_loop();
        let cold = net.solve(25.0).unwrap().iterations;
        let warm = net.solve(25.0).unwrap().iterations;
        assert!(warm <= cold, "warm={warm} cold={cold}");
    }

    #[test]
    fn empty_network_is_an_error() {
        let mut net = HydraulicNetwork::new();
        assert_eq!(net.solve(25.0), Err(SolverError::EmptyNetwork));
    }

    #[test]
    fn injection_balances_at_node() {
        // Straight pipe between two nodes with injection at one end and the
        // reference absorbing it.
        let mut net = HydraulicNetwork::new();
        let a = net.add_node("in");
        let b = net.add_node("out");
        let br = net.add_branch(
            "pipe",
            a,
            b,
            vec![BranchElement::Resistance(HydraulicResistance::from_design(0.1, 10_000.0))],
        );
        net.set_reference(b, 0.0);
        net.set_injection(a, 0.07);
        let sol = net.solve(25.0).unwrap();
        assert!((sol.flow(br) - 0.07).abs() < 1e-8);
        // Pressure at the injection node must be positive (driving flow).
        assert!(sol.pressure(a) > 0.0);
    }

    #[test]
    fn frontier_scale_parallel_network_converges() {
        // 4 pumps in parallel into a header feeding 25 parallel CDU
        // branches — the primary-loop shape from Fig. 5 of the paper.
        let mut net = HydraulicNetwork::new();
        let supply = net.add_node("supply_header");
        let ret = net.add_node("return_header");
        for i in 0..4 {
            let p = Pump::from_design_point(format!("HTWP{i}"), 0.1, 35.0, 0.82);
            net.add_branch(
                format!("htwp{i}"),
                ret,
                supply,
                vec![
                    BranchElement::Pump { pump: p, speed: 0.9 },
                    BranchElement::CheckValve { k_forward: 1e3, k_reverse: 1e12 },
                ],
            );
        }
        let mut cdu_branches = Vec::new();
        for i in 0..25 {
            let valve = ControlValve::from_design(format!("V{i}"), 0.015, 40_000.0);
            let b = net.add_branch(
                format!("cdu{i}"),
                supply,
                ret,
                vec![
                    BranchElement::Valve(valve),
                    BranchElement::Resistance(HydraulicResistance::from_design(0.015, 80_000.0)),
                ],
            );
            cdu_branches.push(b);
        }
        let sol = net.solve(30.0).expect("Frontier-scale network must converge");
        // All CDU branches identical -> equal flows.
        let q0 = sol.flow(cdu_branches[0]);
        assert!(q0 > 0.0);
        for &b in &cdu_branches[1..] {
            assert!((sol.flow(b) - q0).abs() < 1e-9);
        }
        // Total pump flow equals total CDU flow.
        let pump_total: f64 = (0..4).map(|i| sol.flows()[i]).sum();
        let cdu_total: f64 = cdu_branches.iter().map(|&b| sol.flow(b)).sum();
        assert!((pump_total - cdu_total).abs() < 1e-7);
    }

    #[test]
    fn two_branch_split_obeys_quadratic_law() {
        // Pump into a 2-way split with k2 = 9·k1. Quadratic resistances
        // share a common ΔP, so q1/q2 = sqrt(k2/k1) = 3 and the pump flow
        // equals the sum of the leg flows exactly.
        let mut net = HydraulicNetwork::new();
        let a = net.add_node("supply");
        let b = net.add_node("return");
        net.set_reference(a, 100_000.0);
        let pump = Pump::from_design_point("P", 0.2, 28.0, 0.8);
        let bp = net.add_branch("pump", b, a, vec![BranchElement::Pump { pump, speed: 1.0 }]);
        let k = 2.0e6;
        let b1 = net.add_branch(
            "leg1",
            a,
            b,
            vec![BranchElement::Resistance(HydraulicResistance { k })],
        );
        let b2 = net.add_branch(
            "leg2",
            a,
            b,
            vec![BranchElement::Resistance(HydraulicResistance { k: 9.0 * k })],
        );
        let sol = net.solve(25.0).expect("2-branch split must converge");
        let (qp, q1, q2) = (sol.flow(bp), sol.flow(b1), sol.flow(b2));
        assert!(qp > 0.0 && q1 > 0.0 && q2 > 0.0);
        assert!((q1 + q2 - qp).abs() < 1e-8, "split total {} vs pump {qp}", q1 + q2);
        // Tolerance is bounded by the solver's Q_TOL (1e-8 m³/s) on each
        // leg flow, not machine epsilon.
        assert!((q1 / q2 - 3.0).abs() < 1e-4, "split ratio {}", q1 / q2);
    }

    #[test]
    fn mass_conserved_at_interior_junction() {
        // Y-network with a true interior junction: pump → header m, then
        // two legs m → return. Conservation must hold at m, which is
        // neither the reference node nor a simple 2-branch loop node.
        let mut net = HydraulicNetwork::new();
        let ret = net.add_node("return");
        let m = net.add_node("header");
        net.set_reference(ret, 0.0);
        let pump = Pump::from_design_point("P", 0.25, 22.0, 0.8);
        let feed = net.add_branch(
            "feed",
            ret,
            m,
            vec![
                BranchElement::Pump { pump, speed: 1.0 },
                BranchElement::Resistance(HydraulicResistance { k: 5.0e5 }),
            ],
        );
        let l1 = net.add_branch(
            "leg1",
            m,
            ret,
            vec![BranchElement::Resistance(HydraulicResistance { k: 1.5e6 })],
        );
        let l2 = net.add_branch(
            "leg2",
            m,
            ret,
            vec![BranchElement::Resistance(HydraulicResistance { k: 4.0e6 })],
        );
        let sol = net.solve(25.0).expect("Y-network must converge");
        let into_m = sol.flow(feed);
        let out_of_m = sol.flow(l1) + sol.flow(l2);
        assert!(into_m > 0.0);
        assert!((into_m - out_of_m).abs() < 1e-8, "junction imbalance {}", into_m - out_of_m);
        // Header pressure sits between reference and pump discharge.
        assert!(sol.pressure(m) > sol.pressure(ret));
    }

    #[test]
    fn degenerate_single_pipe_converges_to_rest() {
        // A single passive pipe with no pump and no injection is the
        // degenerate case: the unique solution is zero flow with the
        // far node settling at the reference pressure. The damped Newton
        // must converge (and quickly) rather than stall on the flat
        // quadratic around q = 0.
        let mut net = HydraulicNetwork::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.set_reference(a, 50_000.0);
        let pipe = net.add_branch(
            "pipe",
            a,
            b,
            vec![BranchElement::Resistance(HydraulicResistance { k: 1.0e6 })],
        );
        let sol = net.solve(25.0).expect("degenerate single pipe must converge");
        assert!(sol.flow(pipe).abs() < 1e-7, "rest flow {}", sol.flow(pipe));
        assert!((sol.pressure(b) - 50_000.0).abs() < 1.0, "p_b {}", sol.pressure(b));
        assert!(sol.iterations <= 50, "took {} iterations", sol.iterations);
    }

    #[test]
    fn closing_one_valve_redistributes_flow() {
        let mut net = HydraulicNetwork::new();
        let supply = net.add_node("s");
        let ret = net.add_node("r");
        let p = Pump::from_design_point("P", 0.4, 30.0, 0.82);
        net.add_branch("pump", ret, supply, vec![BranchElement::Pump { pump: p, speed: 1.0 }]);
        let mut branches = Vec::new();
        for i in 0..3 {
            let valve = ControlValve::from_design(format!("V{i}"), 0.13, 50_000.0);
            branches.push(net.add_branch(
                format!("leg{i}"),
                supply,
                ret,
                vec![BranchElement::Valve(valve)],
            ));
        }
        let before = net.solve(25.0).unwrap();
        let q_before: Vec<f64> = branches.iter().map(|&b| before.flow(b)).collect();
        net.set_valve_opening(branches[0], 0.15);
        let after = net.solve(25.0).unwrap();
        // Throttled leg drops, the others pick up.
        assert!(after.flow(branches[0]) < q_before[0]);
        assert!(after.flow(branches[1]) > q_before[1]);
        assert!(after.flow(branches[2]) > q_before[2]);
    }

    /// A random network: a spanning tree plus a few extra branches, each a
    /// random chain of resistances, valves, pumps (some stopped, some
    /// without a check valve) and check valves, with a random reference
    /// node and random injections elsewhere.
    fn random_network(rng: &mut exadigit_sim::Rng) -> HydraulicNetwork {
        let nn = 2 + rng.uniform_usize(5);
        let mut net = HydraulicNetwork::new();
        let nodes: Vec<NodeId> = (0..nn).map(|i| net.add_node(format!("n{i}"))).collect();
        net.set_reference(nodes[rng.uniform_usize(nn)], rng.uniform_range(0.0, 2.0e5));
        let mut ends: Vec<(usize, usize)> = (1..nn).map(|i| (rng.uniform_usize(i), i)).collect();
        for _ in 0..rng.uniform_usize(8) {
            let a = rng.uniform_usize(nn);
            ends.push((a, (a + 1 + rng.uniform_usize(nn - 1)) % nn));
        }
        for (i, (a, b)) in ends.into_iter().enumerate() {
            let (a, b) = if rng.chance(0.5) { (a, b) } else { (b, a) };
            let k = 10f64.powf(rng.uniform_range(3.0, 7.0));
            let pump = |rng: &mut exadigit_sim::Rng| BranchElement::Pump {
                pump: Pump::from_design_point(
                    "P",
                    rng.uniform_range(0.02, 0.3),
                    rng.uniform_range(5.0, 40.0),
                    0.8,
                ),
                speed: if rng.chance(0.3) {
                    0.0
                } else {
                    rng.uniform_range(0.3, 1.1)
                },
            };
            let elements = match rng.uniform_usize(4) {
                0 => vec![BranchElement::Resistance(HydraulicResistance { k })],
                1 => {
                    let mut v = ControlValve::from_design(
                        "V",
                        rng.uniform_range(0.01, 0.2),
                        rng.uniform_range(1e4, 1e5),
                    );
                    v.set_opening(rng.uniform());
                    vec![
                        BranchElement::Valve(v),
                        BranchElement::Resistance(HydraulicResistance { k }),
                    ]
                }
                2 => vec![
                    pump(rng),
                    BranchElement::CheckValve {
                        k_forward: k * 1e-2,
                        k_reverse: 1e12,
                    },
                ],
                _ => vec![
                    pump(rng),
                    BranchElement::Resistance(HydraulicResistance { k }),
                ],
            };
            let bi = net.add_branch(format!("b{i}"), nodes[a], nodes[b], elements);
            net.set_initial_flow(bi, rng.uniform_range(-0.05, 0.2));
        }
        for &n in &nodes {
            if n != net.reference && rng.chance(0.3) {
                net.set_injection(n, rng.uniform_range(-0.05, 0.05));
            }
        }
        net
    }

    /// Solve a copy of `net` through the structured route and another
    /// through the dense LU only; both must give the same bits.
    fn assert_routes_agree(net: &HydraulicNetwork, t: f64) -> Option<Solution> {
        let structured = net.clone().solve_with(t, false);
        let dense = net.clone().solve_with(t, true);
        match (&structured, &dense) {
            (Ok(s), Ok(d)) => {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&s.flows), bits(&d.flows), "flows differ");
                assert_eq!(bits(&s.pressures), bits(&d.pressures), "pressures differ");
                assert_eq!(s.iterations, d.iterations);
                assert_eq!(d.dense_iterations, d.iterations);
            }
            (s, d) => assert_eq!(format!("{s:?}"), format!("{d:?}"), "outcomes differ"),
        }
        structured.ok()
    }

    proptest::proptest! {
        /// Whole solves on random networks — cold, then warm after the
        /// pumps and valves move — give the dense LU's bits exactly.
        #[test]
        fn prop_structured_solve_matches_dense(seed in 0u64..100_000) {
            let mut rng = exadigit_sim::Rng::new(seed);
            let mut net = random_network(&mut rng);
            let t = rng.uniform_range(10.0, 50.0);
            if assert_routes_agree(&net, t).is_some() {
                net.solve(t).unwrap();
                for b in 0..net.branch_count() {
                    net.set_pump_speed(BranchId(b), rng.uniform_range(0.0, 1.1));
                    net.set_valve_opening(BranchId(b), rng.uniform());
                }
                assert_routes_agree(&net, t);
            }
        }

        /// Single Newton steps from random states, with exact zeros (of
        /// both signs) in the residual, give the dense LU's bits exactly
        /// whenever the structured step accepts the Jacobian.
        #[test]
        fn prop_structured_step_matches_dense(seed in 0u64..100_000) {
            let mut rng = exadigit_sim::Rng::new(seed);
            let net = random_network(&mut rng);
            let newton = Newton::new(&net, rng.uniform_range(10.0, 50.0));
            let nb = net.branch_count();
            let q: Vec<f64> = (0..nb)
                .map(|_| if rng.chance(0.2) { 0.0 } else { rng.uniform_range(-0.1, 0.3) })
                .collect();
            let mut slopes = vec![0.0; nb];
            newton.slopes(&q, &mut slopes);
            let zeros = rng.chance(0.5);
            let neg_r: Vec<f64> = (0..newton.dim)
                .map(|_| match rng.uniform_usize(4) {
                    0 if zeros => 0.0,
                    1 if zeros => -0.0,
                    _ => rng.uniform_range(-1e3, 1e3),
                })
                .collect();
            let mut structured = neg_r.clone();
            let mut schur = vec![0.0; (newton.dim - nb).pow(2)];
            let mut dense = neg_r;
            let dense_ok = newton.dense_step(&slopes, &mut dense).is_ok();
            match newton.step(&slopes, &mut schur, &mut structured) {
                Ok(true) => {
                    assert!(dense_ok);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&structured), bits(&dense));
                }
                Ok(false) => {}
                Err(_) => assert!(!dense_ok),
            }
        }
    }

    #[test]
    fn zero_flow_sums_keep_the_dense_sign() {
        // Branch 0's back-substituted sum is an exact zero whose sign the
        // dense LU flips by subtracting `0 · dq_1` with dq_1 < 0; the
        // structured step must replay that (−0.0 vs +0.0 in the result).
        let mut net = HydraulicNetwork::new();
        let r = net.add_node("r");
        let a = net.add_node("a");
        let b = net.add_node("b");
        for to in [a, b] {
            net.add_branch(
                "pipe",
                r,
                to,
                vec![BranchElement::Resistance(HydraulicResistance { k: 1e5 })],
            );
        }
        let newton = Newton::new(&net, 25.0);
        let slopes = [-5.0, -7.0];
        let neg_r = [-0.0, 3.0, 0.0, -1.0];
        let (mut structured, mut dense) = (neg_r, neg_r);
        newton.dense_step(&slopes, &mut dense).unwrap();
        assert!(newton
            .step(&slopes, &mut [0.0; 4], &mut structured)
            .unwrap());
        assert!(dense[1] < 0.0 && dense[0] == 0.0);
        assert_eq!(structured.map(f64::to_bits), dense.map(f64::to_bits));
    }

    #[test]
    fn random_networks_take_both_routes() {
        // Guards the property tests above against testing nothing: over
        // these networks most Newton steps are structured, some fall back.
        let (mut steps, mut dense) = (0, 0);
        for seed in 0..200 {
            let mut rng = exadigit_sim::Rng::new(seed);
            let net = random_network(&mut rng);
            if let Some(sol) = assert_routes_agree(&net, 25.0) {
                steps += sol.iterations;
                dense += sol.dense_iterations;
            }
        }
        assert!(dense > 0, "no dense fallback in {steps} steps");
        assert!(2 * dense < steps, "{dense} of {steps} steps fell back");
    }

    #[test]
    fn stopped_pump_without_check_valve_falls_back_to_dense() {
        // A stopped pump alone on a branch has zero gain and zero slope:
        // the dense LU must pivot on a balance row, so every step falls
        // back. The branch leads to a dead end, so it carries no flow.
        let (mut net, bp, _) = simple_loop();
        let dead_end = net.add_node("dead_end");
        let pump = Pump::from_design_point("P2", 0.3, 25.0, 0.8);
        let idle = net.add_branch(
            "idle",
            NodeId(1),
            dead_end,
            vec![BranchElement::Pump { pump, speed: 0.0 }],
        );
        let sol = assert_routes_agree(&net, 25.0).expect("must converge");
        assert!(sol.iterations > 0);
        assert_eq!(sol.dense_iterations, sol.iterations);
        assert!(sol.flow(idle).abs() < 1e-8);
        assert!((sol.pressure(dead_end) - sol.pressure(NodeId(1))).abs() < 1.0);
        assert!((sol.flow(bp) - 0.3).abs() < 1e-3, "q={}", sol.flow(bp));
    }

    #[test]
    fn shallow_slope_falls_back_to_dense() {
        // |∂gain/∂q| = 2·k·|q| falls below 1 near the solution (k = 0.04,
        // q = 10): there dense partial pivoting swaps rows, while the
        // first step, from q = 20, is still structured.
        let mut net = HydraulicNetwork::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        let pipe = net.add_branch(
            "pipe",
            b,
            a,
            vec![BranchElement::Resistance(HydraulicResistance { k: 0.04 })],
        );
        net.set_initial_flow(pipe, 20.0);
        net.set_injection(b, 10.0);
        let sol = assert_routes_agree(&net, 25.0).expect("must converge");
        assert!(
            sol.dense_iterations > 0 && sol.dense_iterations < sol.iterations,
            "{sol:?}"
        );
        assert!((sol.flow(pipe) - 10.0).abs() < 1e-8);
        assert!(
            (sol.pressure(b) - 4.0).abs() < 0.5,
            "p_b {}",
            sol.pressure(b)
        );
    }
}
