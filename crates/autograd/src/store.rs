use crate::{Graph, ParamId, Tensor, Var};

/// Owns the trainable parameter tensors of a model between graph builds.
///
/// A [`Graph`](crate::Graph) is rebuilt every training step; parameters
/// persist here and are injected into each new graph with
/// [`ParamStore::inject`]. Every injected parameter is trainable: a layer
/// is frozen by keeping it off the tape (NOFIS runs earlier coupling
/// blocks tape-free and feeds their output in as a constant), not by a
/// flag here.
///
/// # Example
///
/// ```
/// use nofis_autograd::{Graph, ParamStore, Tensor};
///
/// let mut store = ParamStore::new();
/// let w = store.add(Tensor::from_row(&[1.0, -1.0]));
/// let mut g = Graph::new();
/// let wv = store.inject(&mut g, w);
/// let sq = g.square(wv);
/// let loss = g.sum_all(sq);
/// g.backward(loss);
/// assert_eq!(g.param_grads()[0].1.as_slice(), &[2.0, -2.0]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct ParamStore {
    params: Vec<Tensor>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ParamStore::default()
    }

    /// Registers a parameter tensor and returns its id.
    pub fn add(&mut self, t: Tensor) -> ParamId {
        self.params.push(t);
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Returns `true` if no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Borrows the parameter tensor.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.params[id.0]
    }

    /// Mutably borrows the parameter tensor.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0]
    }

    /// Iterates over `(id, tensor)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Tensor)> {
        self.params.iter().enumerate().map(|(i, t)| (ParamId(i), t))
    }

    /// Total number of scalar parameters (sum of tensor sizes).
    pub fn scalar_count(&self) -> usize {
        self.params.iter().map(Tensor::len).sum()
    }

    /// Injects parameter `id` into `graph` as a parameter leaf.
    ///
    /// The parameter's values are copied into a graph-pooled buffer (no
    /// per-step heap allocation once the graph is warm).
    pub fn inject(&self, graph: &mut Graph, id: ParamId) -> Var {
        let t = &self.params[id.0];
        graph.param_from_slice(id, t.rows(), t.cols(), t.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_mutate() {
        let mut s = ParamStore::new();
        let a = s.add(Tensor::scalar(1.0));
        let b = s.add(Tensor::scalar(2.0));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(b).item(), 2.0);
        s.get_mut(a).as_mut_slice()[0] = 5.0;
        assert_eq!(s.get(a).item(), 5.0);
        assert_eq!(s.scalar_count(), 2);
    }

    #[test]
    fn iter_yields_all() {
        let mut s = ParamStore::new();
        s.add(Tensor::zeros(2, 3));
        s.add(Tensor::zeros(1, 4));
        let ids: Vec<_> = s.iter().map(|(id, t)| (id.index(), t.len())).collect();
        assert_eq!(ids, vec![(0, 6), (1, 4)]);
    }
}
