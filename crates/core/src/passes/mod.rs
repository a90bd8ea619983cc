//! Supporting scalar optimisations.
//!
//! The paper assumes local common-subexpression elimination has run before
//! code motion ([`lcse`]); [`copy_propagation`] and [`dce`] are the
//! clean-up passes production compilers schedule after PRE to dissolve the
//! copies and dead temporaries the rewriting leaves behind. [`cleanup`]
//! runs them, followed by CFG simplification, as the one post-PRE tail
//! shared by [`crate::optimize_pipeline`], the batch driver and `lcmopt`.

mod copyprop;
mod dce;
mod lcse;

pub use copyprop::copy_propagation;
pub use dce::dce;
pub use lcse::lcse;

use lcm_ir::Function;

/// The post-PRE tail: copy propagation, dead-code elimination, then CFG
/// simplification.
pub fn cleanup(f: &mut Function) {
    copy_propagation(f);
    dce(f);
    lcm_ir::simplify_cfg(f);
}
