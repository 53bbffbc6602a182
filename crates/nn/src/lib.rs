//! # pde-nn
//!
//! A small, explicit-backprop neural-network library: the PyTorch substitute
//! used by the paper reproduction.
//!
//! Layers implement [`Layer`] with hand-written forward/backward passes (the
//! network in the paper is four convolution layers — see
//! `pde-ml-core::arch`), losses implement [`loss::Loss`], optimizers
//! implement [`optim::Optimizer`]. Gradient correctness is enforced by the
//! finite-difference checker in [`gradcheck`], which the test suites of this
//! crate and of `pde-ml-core` run over every layer/loss combination.
//!
//! Design notes:
//! * All parameters and gradients are exposed as flat `&mut [f64]` groups via
//!   [`Layer::param_groups`] and [`Layer::visit_param_groups`]; optimizers
//!   keep per-group state keyed by the (stable) group order.
//! * A training step is `forward → loss → backward → optimizer.step_visit`.
//!   A layer has one pass protocol, [`Layer::forward_chain`] /
//!   [`Layer::backward_chain`], and keeps no activation: a [`Sequential`]
//!   owns every activation once and lends it to the layers, which write
//!   their gradients over it (see [`Layer`], [`Sequential`] and `DESIGN.md`
//!   §4c).
//! * Serving runs the trained weights in `f32`: [`ServingNet`] converts and
//!   packs them once and keeps its own activations (see [`serving`]).
//! * Nothing here is thread-aware: parallelism happens one level up, where
//!   each MPI-like rank owns one whole network (the paper's scheme).

pub mod activation;
pub mod conv;
pub mod deconv;
pub mod gradcheck;
pub mod init;
pub mod layer;
pub mod loss;
pub mod optim;
pub mod sequential;
pub mod serialize;
pub mod serving;

pub use activation::{LeakyReLu, ReLu};
pub use conv::Conv2d;
pub use deconv::ConvTranspose2d;
pub use layer::{InputGrad, Layer, ParamGroup};
pub use loss::{Loss, Mape, Mse};
pub use optim::{Adam, Optimizer, OptimizerState, RmsProp, Sgd};
pub use sequential::Sequential;
pub use serving::{ServingNet, ServingStage};
