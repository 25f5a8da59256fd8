"""Helpers shared by the network and model-file tests."""

from pavesim.network import NetworkParams


def params_equal(a: NetworkParams, b: NetworkParams) -> bool:
    """Same layer shapes and a bit-for-bit identical parameter vector."""
    return (
        [w.shape for w in a.weights] == [w.shape for w in b.weights]
        and [x.shape for x in a.biases] == [x.shape for x in b.biases]
        and a.vector.tobytes() == b.vector.tobytes()
    )
