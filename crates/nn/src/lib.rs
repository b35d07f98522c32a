//! # fv-nn
//!
//! A from-scratch, CPU-parallel fully-connected-network stack — the
//! workspace's stand-in for the TensorFlow/PyTorch training pipeline the
//! paper ran on A100s.
//!
//! The paper's model is deliberately simple (Sec. III-E): five dense
//! hidden layers (512→16) with ReLU, a linear 4-unit output, MSE loss and
//! Adam at `lr = 1e-3`. That scale is well within reach of a careful
//! hand-rolled implementation, which buys us: no immature framework
//! dependency (see the repro notes in DESIGN.md), full determinism, and
//! first-class support for the paper's two fine-tuning modes (freeze-none
//! vs freeze-all-but-last-two, Fig. 5).
//!
//! * [`mlp::Mlp`] — the network: a stack of [`layer::Dense`] layers.
//! * [`train::Trainer`] — seeded minibatch SGD driver with loss history,
//!   warm starts (fine-tuning) and layer freezing.
//! * [`optim`] — Adam and SGD with per-layer state.
//! * [`serialize`] — compact binary model checkpoints (the artifact the
//!   in-situ workflow "carries between timesteps").
//!
//! Batches are row-major [`fv_linalg::Matrix`] values. The hot loops run
//! through [`workspace::TrainWorkspace`] / [`workspace::InferWorkspace`]
//! and the fused `_into` kernels of `fv-linalg`, so a steady-state training
//! step or inference batch performs zero heap allocation, and each kernel's
//! parallelism is decided by the runtime's min-work granularity policy —
//! small ops never pay pool overhead, large ones saturate the cores.

pub mod activation;
pub mod data;
pub mod error;
pub mod guard;
pub mod init;
pub mod layer;
pub mod loss;
pub mod mlp;
pub mod optim;
pub mod schedule;
pub mod serialize;
pub mod train;
pub mod workspace;

pub use activation::Activation;
pub use error::NnError;
pub use guard::{GuardConfig, GuardEvent};
pub use mlp::Mlp;
pub use train::{Trainer, TrainerConfig};
pub use workspace::{InferWorkspace, TrainWorkspace};
