//! API-guideline conformance checks: common-trait availability,
//! `Send`/`Sync` markers on the data types users move across threads,
//! and error-type ergonomics.

use adgen::prelude::*;

fn assert_send_sync<T: Send + Sync>() {}
fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
fn assert_clone_debug<T: Clone + std::fmt::Debug>() {}

#[test]
fn data_types_are_send_and_sync() {
    assert_send_sync::<AddressSequence>();
    assert_send_sync::<ArrayShape>();
    assert_send_sync::<Netlist>();
    assert_send_sync::<Library>();
    assert_send_sync::<SragSpec>();
    assert_send_sync::<CntAgSpec>();
    assert_send_sync::<ArithAgSpec>();
    assert_send_sync::<Addm>();
    assert_send_sync::<Ram>();
    assert_send_sync::<PowerReport>();
    assert_send_sync::<AreaReport>();
}

#[test]
fn error_types_are_well_behaved() {
    assert_error::<NetlistError>();
    assert_error::<SragError>();
    assert_error::<MemError>();
    assert_error::<adgen::synth::SynthError>();
    assert_error::<adgen::seq::SeqError>();
    assert_error::<adgen::explorer::FamilyError>();
}

#[test]
fn specs_are_cloneable_and_debuggable() {
    assert_clone_debug::<SragSpec>();
    assert_clone_debug::<CntAgSpec>();
    assert_clone_debug::<ArithAgSpec>();
    assert_clone_debug::<Mapping>();
    assert_clone_debug::<Netlist>();
    assert_clone_debug::<ComparisonRow>();
}

#[test]
fn error_display_is_lowercase_without_trailing_punctuation() {
    let errors: Vec<Box<dyn std::error::Error>> = vec![
        Box::new(NetlistError::UndrivenNet { net: "x".into() }),
        Box::new(SragError::EmptySequence),
        Box::new(MemError::NoSelect),
        Box::new(adgen::seq::SeqError::EmptyGeometry { what: "w" }),
        Box::new(adgen::synth::SynthError::EmptyStateSpace),
        Box::new(adgen::synth::SynthError::ShapeNotPowerOfTwo {
            width: 6,
            height: 4,
        }),
        Box::new(adgen::explorer::FamilyError::ShapeNotPowerOfTwo),
        Box::new(adgen::explorer::FamilyError::Synth(
            "",
            adgen::synth::SynthError::EmptyStateSpace,
        )),
        Box::new(adgen::explorer::FamilyError::Timing(
            NetlistError::UndrivenNet { net: "x".into() },
        )),
    ];
    for e in errors {
        let msg = e.to_string();
        assert!(
            msg.chars().next().unwrap().is_lowercase(),
            "`{msg}` should start lowercase"
        );
        assert!(
            !msg.ends_with('.') && !msg.ends_with('!'),
            "`{msg}` should not end with punctuation"
        );
    }
}

#[test]
fn sequence_error_carries_useful_sources() {
    // From-conversions chain into SragError with source() intact.
    let seq_err = adgen::seq::SeqError::EmptyGeometry { what: "t" };
    let wrapped = SragError::from(seq_err);
    assert!(std::error::Error::source(&wrapped).is_some());
}

#[test]
fn default_constructors_match_new() {
    assert_eq!(AddressSequence::new(), AddressSequence::default());
    // Library::default is the vcl018 library.
    assert_eq!(Library::default().name(), Library::vcl018().name());
}
