"""Direction-predictor interface."""

from __future__ import annotations


class DirectionPredictor:
    """Predicts taken/not-taken for conditional branches.

    Implementations must be deterministic given the access sequence, so
    that identical configurations produce identical simulated cycles.
    """

    #: Registry key used by configuration / the tuner.
    kind = "abstract"

    __slots__ = ()

    def predict(self, pc: int) -> bool:
        """Return the predicted direction for the branch at ``pc``."""
        raise NotImplementedError

    def update(self, pc: int, taken: bool) -> None:
        """Train the predictor with the resolved outcome."""
        raise NotImplementedError

    def predict_update(self, pc: int, taken: bool) -> bool:
        """Predict then train; returns the *prediction* (hot-loop helper)."""
        prediction = self.predict(pc)
        self.update(pc, taken)
        return prediction

    def reset(self) -> None:
        """Forget all training state."""
        raise NotImplementedError
