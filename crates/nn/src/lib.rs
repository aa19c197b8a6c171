//! A minimal neural-network substrate: dense tensors, a tape-based
//! reverse-mode autodiff graph, the layers the paper's networks need
//! (linear, MLP, multi-head scaled dot-product attention, dense or over
//! sparse neighbour lists), and SGD/Adam optimizers.
//!
//! The paper's models are small (per-vehicle 5-feature states, two stacked
//! attention blocks over at most a few hundred vehicles), so a straight
//! `f64` CPU implementation reproduces the training dynamics without any
//! external ML framework. Every op's backward pass is verified against
//! central finite differences in the test suite.
//!
//! # Example
//!
//! ```
//! use dpdp_nn::{Graph, ParamStore, Linear, Adam, Optimizer, Tensor};
//!
//! let mut store = ParamStore::new(42);
//! let layer = Linear::new(&mut store, 3, 1);
//! let mut adam = Adam::with_lr(1e-2);
//! for _ in 0..200 {
//!     let mut g = Graph::new();
//!     let x = g.constant(Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]));
//!     let y = g.constant(Tensor::from_rows(&[&[6.0], &[15.0]]));
//!     let pred = layer.forward(&mut g, &store, x);
//!     let loss = g.mse(pred, y);
//!     g.backward(loss, &mut store);
//!     adam.step(&mut store);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attention;
pub mod graph;
pub mod init;
pub mod layers;
pub mod optim;
pub mod params;
pub mod serialize;
pub mod tensor;

pub use attention::NeighbourIndex;
pub use graph::{Graph, Precision, Var};
pub use layers::{Linear, Mlp, MultiHeadAttention};
pub use optim::{Adam, Optimizer, Sgd};
pub use params::{ParamId, ParamStore};
pub use tensor::Tensor;
