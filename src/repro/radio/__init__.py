"""Link-level model of the GPRS radio interface.

The paper fixes the channel coding scheme to CS-2 and assumes that "almost all
packet losses can be recovered by the FEC mechanism of the coding scheme and
therefore no retransmissions of lost packets are necessary"; it explicitly
lists "taking into account packet retransmissions that would lead to a
decrease in overall throughput" as future work (end of Section 3).  This
package implements that future work as a self-contained link-level substrate:

* :mod:`repro.radio.blocks` -- the error-free radio-interface arithmetic
  (RLC blocks per packet, multislot transfer time) that both the ARQ
  analysis and the network simulator build on;
* :mod:`repro.radio.bler` -- block error probability of the four GPRS coding
  schemes CS-1 .. CS-4 as a function of the carrier-to-interference ratio
  (synthetic logistic curves calibrated to the qualitative behaviour reported
  in the GPRS literature: robust-but-slow CS-1, fragile-but-fast CS-4);
* :mod:`repro.radio.channel` -- a Gilbert--Elliott two-state burst-error
  channel built on the CTMC library, for studying correlated block errors;
* :mod:`repro.radio.arq` -- the RLC selective-repeat ARQ: expected number of
  transmissions per block, effective (goodput) rate of a PDCH, residual loss
  with a bounded number of retransmissions, and the expected transfer time of
  a network-layer packet including retransmissions;
* :mod:`repro.radio.link_adaptation` -- choosing the coding scheme that
  maximises the effective throughput at a given link quality, including the
  C/I switching thresholds between adjacent schemes.

The analytical GPRS model consumes this package through the
``block_error_rate`` field of
:class:`~repro.core.parameters.GprsModelParameters`, which degrades the
per-PDCH service rate to the ARQ goodput; the network simulator applies the
same degradation to every packet transfer, so model and simulation stay
comparable.
"""

from repro.radio.arq import (
    ArqPerformance,
    analyze_arq,
    effective_pdch_rate_kbit_s,
    effective_service_rate,
    expected_packet_transfer_time,
    expected_transmissions_per_block,
    residual_block_loss_probability,
)
from repro.radio.bler import (
    CODING_SCHEME_BLER_PARAMETERS,
    BlerCurve,
    block_error_rate,
    required_ci_for_bler,
)
from repro.radio.channel import GilbertElliottChannel
from repro.radio.link_adaptation import (
    LinkAdaptationPolicy,
    best_coding_scheme,
    switching_thresholds,
)

__all__ = [
    "ArqPerformance",
    "BlerCurve",
    "CODING_SCHEME_BLER_PARAMETERS",
    "GilbertElliottChannel",
    "LinkAdaptationPolicy",
    "analyze_arq",
    "best_coding_scheme",
    "block_error_rate",
    "effective_pdch_rate_kbit_s",
    "effective_service_rate",
    "expected_packet_transfer_time",
    "expected_transmissions_per_block",
    "required_ci_for_bler",
    "residual_block_loss_probability",
    "switching_thresholds",
]
