"""Finite-field transforms, vanishing-ideal machinery, and affine variety
codes with erasure-and-error decoding and DFT systematic encoding."""

__version__ = "0.1.0"

from .gf import Field, ZERO, ONE
from .mindex import MonomialOrder, semigroup_add, dominates
from .transform import Spectrum, Word, dft, idft, dft_fast, idft_fast, dft_partial
from .ideal import Polynomial, vanishing_gb, check_set_basis, normal_form, extend
from .maps import PointSet, evaluate, proper_transform, canonical_iso
from .codes import CodeSpec, preset, load_code, code_from_config, \
    encode_nonsystematic, primal_encode, syndrome, is_dual_codeword
from .decoder import (locate, decode_info, decode_word, systematic_encode,
                      check_systematic_support, DecodeResult, InfoSpectrum,
                      UndecodableError)
