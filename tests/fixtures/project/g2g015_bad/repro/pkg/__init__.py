from .reexported import thing

__all__ = ["thing"]
