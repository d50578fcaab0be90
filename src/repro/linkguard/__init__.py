"""Link-local loss protection: mask a bad link below the transport.

The transport's answer to loss is end-to-end go-back-N (DESIGN.md §10)
and, above that, circuit breakers that degrade service when a server
really dies (§11).  Both are the *wrong tool* for one specific failure:
a link that corrupts — packets arrive, fail their CRC, and silently
vanish, so every loss costs a full transport RTO and a go-back-N replay
of the whole in-flight window.

This package is the other tool: a LinkGuardian-style (SIGCOMM'23) guard
pair wrapped around one :class:`~repro.net.link.Link`.  The sender shims
every frame with a link-local sequence number and keeps a bounded
emergency retransmission buffer; the receiver detects corruption and
holes the moment they appear and NAKs immediately, so the resend lands
within a link RTT — orders of magnitude before the transport's timer
would fire.  The transport above sees a lossless (and, in
``"full-ordered"`` mode, ordered) link.

docs/RESILIENCE.md is the decision guide for when to reach for this
versus a breaker; DESIGN.md §14 specifies the protocol.

>>> from repro.api import LinkGuard
>>> guard = LinkGuard(tb.server_link)          # full-ordered by default
>>> ...                                        # run traffic, inject faults
>>> guard.counts["masked_losses"]              # losses the transport never saw
"""
