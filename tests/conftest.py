"""Process-level tests start `python -m selfnorm`; pyproject's pythonpath
reaches only this process, so the checkout's src/ goes on PYTHONPATH too."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
