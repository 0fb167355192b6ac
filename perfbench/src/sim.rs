//! Independent re-computations the output checks compare the program with.
//!
//! Nothing here calls the program's numerical code: the statevector
//! simulator applies its own gate matrices to the gate list of a bound
//! circuit, and the feature map re-derives PCA projection and normalisation
//! from the fitted model's public `mean()` and `components()`.

use enq_circuit::{Angle, Gate, QuantumCircuit};

/// Complex amplitude `(re, im)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Amp(pub f64, pub f64);

impl Amp {
    fn mul(self, o: Amp) -> Amp {
        Amp(self.0 * o.0 - self.1 * o.1, self.0 * o.1 + self.1 * o.0)
    }
    fn add(self, o: Amp) -> Amp {
        Amp(self.0 + o.0, self.1 + o.1)
    }
}

type Mat2 = [[Amp; 2]; 2];

fn fixed(angle: &Angle) -> Result<f64, String> {
    match angle {
        Angle::Fixed(v) => Ok(*v),
        Angle::Expr { index, .. } => Err(format!("parameter {index} is unbound")),
    }
}

fn rx(t: f64) -> Mat2 {
    let (s, c) = (t / 2.0).sin_cos();
    [[Amp(c, 0.0), Amp(0.0, -s)], [Amp(0.0, -s), Amp(c, 0.0)]]
}

fn ry(t: f64) -> Mat2 {
    let (s, c) = (t / 2.0).sin_cos();
    [[Amp(c, 0.0), Amp(-s, 0.0)], [Amp(s, 0.0), Amp(c, 0.0)]]
}

fn rz(t: f64) -> Mat2 {
    let (s, c) = (t / 2.0).sin_cos();
    [[Amp(c, -s), Amp(0.0, 0.0)], [Amp(0.0, 0.0), Amp(c, s)]]
}

const PAULI_X: Mat2 = [
    [Amp(0.0, 0.0), Amp(1.0, 0.0)],
    [Amp(1.0, 0.0), Amp(0.0, 0.0)],
];
const PAULI_Y: Mat2 = [
    [Amp(0.0, 0.0), Amp(0.0, -1.0)],
    [Amp(0.0, 1.0), Amp(0.0, 0.0)],
];
const PAULI_Z: Mat2 = [
    [Amp(1.0, 0.0), Amp(0.0, 0.0)],
    [Amp(0.0, 0.0), Amp(-1.0, 0.0)],
];

/// Applies `m` to qubit `target` (bit `target` of the amplitude index) on
/// the amplitudes whose `control` bit, if any, is set.
fn apply(state: &mut [Amp], m: &Mat2, target: usize, control: Option<usize>) {
    let bit = 1usize << target;
    for i in 0..state.len() {
        if i & bit != 0 || control.is_some_and(|c| i & (1 << c) == 0) {
            continue;
        }
        let (a, b) = (state[i], state[i | bit]);
        state[i] = m[0][0].mul(a).add(m[0][1].mul(b));
        state[i | bit] = m[1][0].mul(a).add(m[1][1].mul(b));
    }
}

/// Statevector of a bound circuit applied to `|0…0⟩`. Qubit `q` is bit `q`
/// of the amplitude index; a controlled gate's first operand is the control.
///
/// # Errors
///
/// Unbound parameters and gates the ansatz never emits.
pub fn simulate(circuit: &QuantumCircuit) -> Result<Vec<Amp>, String> {
    let mut state = vec![Amp(0.0, 0.0); 1 << circuit.num_qubits()];
    state[0] = Amp(1.0, 0.0);
    for inst in circuit.instructions() {
        let q = &inst.qubits;
        match &inst.gate {
            Gate::Rx(a) => apply(&mut state, &rx(fixed(a)?), q[0], None),
            Gate::Ry(a) => apply(&mut state, &ry(fixed(a)?), q[0], None),
            Gate::Rz(a) => apply(&mut state, &rz(fixed(a)?), q[0], None),
            Gate::Cx => apply(&mut state, &PAULI_X, q[1], Some(q[0])),
            Gate::Cy => apply(&mut state, &PAULI_Y, q[1], Some(q[0])),
            Gate::Cz => apply(&mut state, &PAULI_Z, q[1], Some(q[0])),
            other => return Err(format!("gate {} is not simulated", other.name())),
        }
    }
    Ok(state)
}

/// `|⟨x̂|ψ⟩|²` for a real, unit-norm target `x̂`.
pub fn overlap_fidelity(state: &[Amp], target: &[f64]) -> f64 {
    let (re, im) = state
        .iter()
        .zip(target)
        .fold((0.0, 0.0), |(re, im), (a, &x)| (re + a.0 * x, im + a.1 * x));
    re * re + im * im
}

/// The unit-norm feature vector of a raw sample: centred projection onto
/// every PCA component, zero-padded to `output_dim`, L2-normalised.
pub fn features(mean: &[f64], components: &[Vec<f64>], output_dim: usize, raw: &[f64]) -> Vec<f64> {
    let mut out: Vec<f64> = components
        .iter()
        .map(|axis| {
            axis.iter()
                .zip(raw.iter().zip(mean))
                .map(|(a, (x, m))| a * (x - m))
                .sum()
        })
        .collect();
    out.resize(output_dim, 0.0);
    normalize(&mut out);
    out
}

/// Scales `v` to unit L2 norm (a zero vector is left as is).
pub fn normalize(v: &mut [f64]) {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        v.iter_mut().for_each(|x| *x /= norm);
    }
}

/// `⟨a, b⟩`.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_1_SQRT_2, FRAC_PI_2, PI};

    fn close(a: Amp, b: Amp) -> bool {
        (a.0 - b.0).abs() < 1e-12 && (a.1 - b.1).abs() < 1e-12
    }

    #[test]
    fn rx_then_cy_prepares_a_known_bell_state() {
        // Rx(−π/2)|0⟩ = (|0⟩ + i|1⟩)/√2 on qubit 0; CY(0→1) maps |01⟩ (qubit
        // 0 set) to i·i|11⟩, so the state is (|00⟩ − |11⟩)/√2.
        let mut qc = QuantumCircuit::new(2);
        qc.rx(-FRAC_PI_2, 0).cy(0, 1);
        let state = simulate(&qc).unwrap();
        let h = FRAC_1_SQRT_2;
        assert!(close(state[0], Amp(h, 0.0)));
        assert!(close(state[1], Amp(0.0, 0.0)));
        assert!(close(state[2], Amp(0.0, 0.0)));
        assert!(close(state[3], Amp(-h, 0.0)));
        let fid = overlap_fidelity(&state, &[h, 0.0, 0.0, -h]);
        assert!((fid - 1.0).abs() < 1e-12);
        assert!(overlap_fidelity(&state, &[h, 0.0, 0.0, h]) < 1e-12);
    }

    #[test]
    fn qubit_one_is_the_second_bit_and_rotations_have_known_phases() {
        // Rx(π) on qubit 1: |00⟩ → −i|10⟩, index 0b10.
        let mut qc = QuantumCircuit::new(2);
        qc.rx(PI, 1);
        let state = simulate(&qc).unwrap();
        assert!(close(state[2], Amp(0.0, -1.0)));
        // Ry(π/2)|0⟩ = (|0⟩ + |1⟩)/√2, then Rz(π/2) gives e^{∓iπ/4} phases:
        // (e^{−iπ/4}|0⟩ + e^{iπ/4}|1⟩)/√2; the real target (1, 1)/√2 overlaps
        // it with fidelity cos²(π/4) = 1/2.
        let mut qc = QuantumCircuit::new(1);
        qc.ry(FRAC_PI_2, 0).rz(FRAC_PI_2, 0);
        let state = simulate(&qc).unwrap();
        assert!(close(state[0], Amp(0.5, -0.5)));
        assert!(close(state[1], Amp(0.5, 0.5)));
        let h = FRAC_1_SQRT_2;
        assert!((overlap_fidelity(&state, &[h, h]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unbound_and_unknown_gates_are_refused() {
        let mut qc = QuantumCircuit::new(1);
        qc.rz(Angle::parameter(0), 0);
        assert!(simulate(&qc).is_err());
        let mut qc = QuantumCircuit::new(1);
        qc.h(0);
        assert!(simulate(&qc).is_err());
    }

    #[test]
    fn features_project_centre_pad_and_normalise() {
        let mean = [1.0, 1.0, 1.0];
        let components = vec![vec![1.0, 0.0, 0.0], vec![0.0, 0.0, 1.0]];
        let f = features(&mean, &components, 4, &[4.0, 9.0, 5.0]);
        assert_eq!(f.len(), 4);
        assert!((f[0] - 0.6).abs() < 1e-15 && (f[1] - 0.8).abs() < 1e-15);
        assert_eq!(&f[2..], &[0.0, 0.0]);
    }
}
