from .reexported import thing
from . import registry as _registry  # noqa: F401  (side effect: registers)

__all__ = ["thing"]
