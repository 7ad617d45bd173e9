//! The one delay/area price of the affine family: the programmable
//! AGU for a fit plus, when the fit is not exact, a binary side FSM
//! replaying the residual.
//!
//! The price covers the generator alone. A binary address still needs
//! row/column decoders in front of a decoder-decoupled array: the
//! explorer adds their delay (`row_dec.max(col_dec)`) on top, while
//! the server's `Synthesize` request carries no array shape and
//! reports this price unchanged.

use adgen_netlist::{Library, Price};
use adgen_synth::{price_cyclic, EffortBudget, Encoding, OutputStyle, PriceError};

use crate::error::AffinePriceError;
use crate::mapper::AffineFit;
use crate::netlist::AffineAgNetlist;

/// An affine fit elaborated and priced.
#[derive(Debug, Clone)]
pub struct PricedAffine {
    /// The programmable AGU with the fit baked in as its default
    /// program; [`AffineAgNetlist::config_bits`] is its
    /// programmability premium.
    pub agu: AffineAgNetlist,
    /// The AGU beside the residual FSM, if any ([`Price::beside`]).
    pub price: Price,
    /// Whether the residual FSM's logic minimization ran out of its
    /// effort budget; always `false` for an exact fit.
    pub truncated: bool,
}

/// Elaborates the AGU for `fit` and prices it; a non-empty residual is
/// synthesized as a binary-encoded FSM at the default synthesis effort
/// and priced beside it.
///
/// # Errors
///
/// [`AffinePriceError::Elaborate`] if the AGU cannot be built,
/// [`AffinePriceError::Residual`] if the residual FSM cannot be
/// synthesized, and [`AffinePriceError::Timing`] if timing analysis of
/// either netlist fails.
pub fn price_affine(fit: &AffineFit, library: &Library) -> Result<PricedAffine, AffinePriceError> {
    let agu = AffineAgNetlist::elaborate(&fit.spec).map_err(AffinePriceError::Elaborate)?;
    let mut price = Price::of(&agu.netlist, library).map_err(AffinePriceError::Timing)?;
    let mut truncated = false;
    if !fit.residual.is_empty() {
        let style = OutputStyle::BinaryAddress {
            bits: fit.spec.addr_width as usize,
        };
        let budget = EffortBudget::synthesis_default();
        let residual = price_cyclic(&fit.residual, Encoding::Binary, style, budget, library)
            .map_err(|e| match e {
                PriceError::Synth(e) => AffinePriceError::Residual(e),
                PriceError::Timing(e) => AffinePriceError::Timing(e),
            })?;
        price = price.beside(residual.price);
        truncated = residual.fsm.truncated;
    }
    Ok(PricedAffine {
        agu,
        price,
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::fit_sequence;

    #[test]
    fn exact_fit_prices_the_agu_alone() {
        let lib = Library::vcl018();
        let fit = fit_sequence(&(0..16).collect::<Vec<_>>()).unwrap();
        let priced = price_affine(&fit, &lib).unwrap();
        assert_eq!(priced.price, Price::of(&priced.agu.netlist, &lib).unwrap());
        assert!(!priced.truncated);
    }

    #[test]
    fn residual_is_priced_beside_the_agu() {
        let lib = Library::vcl018();
        let fit = fit_sequence(&[0, 3, 1, 2, 3, 0, 2, 2]).unwrap();
        assert!(!fit.residual.is_empty());
        let priced = price_affine(&fit, &lib).unwrap();
        let agu = Price::of(&priced.agu.netlist, &lib).unwrap();
        assert!(priced.price.area > agu.area);
        assert!(priced.price.flip_flops > agu.flip_flops);
        assert!(priced.price.delay_ps >= agu.delay_ps);
    }
}
