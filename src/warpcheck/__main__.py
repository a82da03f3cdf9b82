"""``python -m warpcheck``: the same as the ``warpcheck`` console script."""
from warpcheck.cli import entrypoint

if __name__ == "__main__":
    entrypoint()
