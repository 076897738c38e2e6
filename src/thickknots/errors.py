"""Exception types shared across the package."""


class ThickKnotsError(Exception):
    """Base class for all package errors."""


class TooFewVertices(ThickKnotsError):
    pass


class EdgeLengthViolation(ThickKnotsError):
    def __init__(self, index, deviation):
        self.index = index
        self.deviation = deviation
        super().__init__(
            f"edge {index} deviates from unit length by {deviation:.3e}"
        )


class DegenerateAngle(ThickKnotsError):
    pass


class DegenerateAxis(ThickKnotsError):
    pass


class NotCoplanarizable(ThickKnotsError):
    def __init__(self, residual, message="no coplanarizing reflection"):
        self.residual = residual
        super().__init__(f"{message} (residual {residual:.3e})")


class AlreadyRegular(ThickKnotsError):
    pass


class NotApplicable(ThickKnotsError):
    pass


class NoSignChange(ThickKnotsError):
    pass


class PipelineStall(ThickKnotsError):
    def __init__(self, stage, detail=""):
        self.stage = stage
        super().__init__(f"pipeline stalled in stage {stage}: {detail}")


class ConfigError(ThickKnotsError):
    pass


class IntegrityFailure(ThickKnotsError):
    pass


class TooFewSamples(ThickKnotsError):
    pass


class ParseError(ThickKnotsError):
    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class NoGenericProjection(ThickKnotsError):
    pass
