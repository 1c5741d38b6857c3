"""Concrete categories and their boundary functors."""

from .hjcat import WordBoundary, WordCategory, standard_window, word_boundary, word_category
from .pcat import ORIENTATIONS, StepBoundary, StepCategory, step_boundary
from .product import ProductCategory, ProductFunctor, product_functor
from .rcat import SubsetBoundary, SubsetCategory, subset_boundary, subset_category
from .trees import TreeCategory, TreeTruncation, grow, height, star, structure, tree_category, tree_truncation
