//@path crates/comms/src/deep_chain.rs
//! Soundness guard for the taint fixpoint: a `.rank` read reaches the
//! guard of `step` only as a return value threaded through 14 helpers.
//! Callers precede callees, so each round lifts the taint one level; an
//! analysis that stops after a fixed number of rounds proves this
//! divergent schedule uniform.

pub fn step(world: &mut dyn CommWorld, x: f64) {
    if owner_1(world) == 0 {
        world.global_sum(x);
    }
    world.barrier();
}

fn owner_1(world: &mut dyn CommWorld) -> usize {
    owner_2(world)
}

fn owner_2(world: &mut dyn CommWorld) -> usize {
    owner_3(world)
}

fn owner_3(world: &mut dyn CommWorld) -> usize {
    owner_4(world)
}

fn owner_4(world: &mut dyn CommWorld) -> usize {
    owner_5(world)
}

fn owner_5(world: &mut dyn CommWorld) -> usize {
    owner_6(world)
}

fn owner_6(world: &mut dyn CommWorld) -> usize {
    owner_7(world)
}

fn owner_7(world: &mut dyn CommWorld) -> usize {
    owner_8(world)
}

fn owner_8(world: &mut dyn CommWorld) -> usize {
    owner_9(world)
}

fn owner_9(world: &mut dyn CommWorld) -> usize {
    owner_10(world)
}

fn owner_10(world: &mut dyn CommWorld) -> usize {
    owner_11(world)
}

fn owner_11(world: &mut dyn CommWorld) -> usize {
    owner_12(world)
}

fn owner_12(world: &mut dyn CommWorld) -> usize {
    owner_13(world)
}

fn owner_13(world: &mut dyn CommWorld) -> usize {
    owner_14(world)
}

fn owner_14(world: &mut dyn CommWorld) -> usize {
    world.rank()
}
