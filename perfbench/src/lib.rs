//! Seeded benchmark of the simulator's host cost. See `README.md`.

pub mod exec;
pub mod ops;
pub mod reference;
pub mod run;
pub mod trace;
